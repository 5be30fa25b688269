package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"slices"
	"time"

	"repro/internal/dynmatch"
	"repro/internal/serve"
	"repro/internal/serve/wire"
)

// ioTimeout bounds every socket read and write of the benchmark and of the
// server, so a hang fails the run instead of stalling it.
const ioTimeout = 60 * time.Second

// sendWindow is how many batches the closed-loop client keeps in flight,
// the same depth serve.Client.SendUpdates pipelines.
const sendWindow = 64

// cycles is how many parts the run is cut into. Each part runs a
// saturation segment, an open-loop round, a restart and a slice of the
// static ops, so a slow stretch of the machine touches every metric a
// little instead of one metric wholly.
const cycles = 10

// finalRestarts is how many restarts from the final checkpoint a run
// times for restore_s. They all restore the same state, so their times
// share one distribution however much the state grew along the stream.
const finalRestarts = 10

func serverConfig(w workload, n int, seed uint64, dir string) serve.Config {
	return serve.Config{
		N:              n,
		Beta:           servedBeta,
		Eps:            servedEps,
		Seed:           seed,
		Backend:        w.backend,
		CheckpointDir:  dir,
		IOTimeoutNanos: int64(ioTimeout),
		NowNanos:       func() int64 { return time.Now().UnixNano() },
	}
}

// server is an in-process serve.Server on a loopback listener.
type server struct {
	s      *serve.Server
	addr   string
	served chan struct{} // closed when Serve returns
}

func startServer(s *serve.Server) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Shutdown()
		return nil, fmt.Errorf("listen: %w", err)
	}
	sv := &server{s: s, addr: l.Addr().String(), served: make(chan struct{})}
	go func() {
		defer close(sv.served)
		s.Serve(l)
	}()
	return sv, nil
}

// stop shuts the server down and waits for its accept loop to return; it
// may be called more than once. The loop's own error is not interesting
// here: a server stopped before its loop started reports "shut down", and
// a failure to accept already failed the client that needed the
// connection.
func (sv *server) stop() {
	sv.s.Shutdown()
	<-sv.served
}

// wireConn is a load-generator connection speaking the wire protocol
// directly, so every batch, barrier and refusal is seen and counted.
type wireConn struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

func dialWire(addr string) (*wireConn, wire.Welcome, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, wire.Welcome{}, fmt.Errorf("dial: %w", err)
	}
	c := &wireConn{conn: conn, br: bufio.NewReaderSize(conn, 1<<16), bw: bufio.NewWriterSize(conn, 1<<16)}
	m, err := c.roundTrip(wire.Hello{})
	if err != nil {
		conn.Close()
		return nil, wire.Welcome{}, err
	}
	wel, ok := m.(wire.Welcome)
	if !ok {
		conn.Close()
		return nil, wire.Welcome{}, fmt.Errorf("handshake reply %T, want Welcome", m)
	}
	return c, wel, nil
}

func (c *wireConn) send(m wire.Msg) error { return wire.WriteFrame(c.bw, m) }

func (c *wireConn) flush() error {
	c.conn.SetDeadline(time.Now().Add(ioTimeout))
	return c.bw.Flush()
}

func (c *wireConn) recv() (wire.Msg, error) {
	c.conn.SetDeadline(time.Now().Add(ioTimeout))
	return wire.ReadFrame(c.br)
}

func (c *wireConn) roundTrip(m wire.Msg) (wire.Msg, error) {
	if err := c.send(m); err != nil {
		return nil, err
	}
	if err := c.flush(); err != nil {
		return nil, err
	}
	return c.recv()
}

// barrier sends the protocol's flush barrier and returns the committed
// sequence it reports.
func (c *wireConn) barrier() (uint64, error) {
	m, err := c.roundTrip(wire.FlushReq{})
	if err != nil {
		return 0, err
	}
	f, ok := m.(wire.FlushResp)
	if !ok {
		return 0, fmt.Errorf("flush reply %T, want FlushResp", m)
	}
	return f.Applied, nil
}

func (c *wireConn) matching() ([]int32, error) {
	m, err := c.roundTrip(wire.MatchReq{})
	if err != nil {
		return nil, err
	}
	r, ok := m.(wire.MatchResp)
	if !ok {
		return nil, fmt.Errorf("match reply %T, want MatchResp", m)
	}
	return r.Mates, nil
}

// batchReply classifies the reply to one batch: nil for an Ack, errShed
// for an admission-quota refusal, another error for anything else.
func batchReply(m wire.Msg, err error) error {
	if err != nil {
		return err
	}
	switch r := m.(type) {
	case wire.Ack:
		return nil
	case wire.ErrorResp:
		if r.Code == wire.CodeOverloaded {
			return errShed
		}
		return fmt.Errorf("server error %d: %s", r.Code, r.Msg)
	}
	return fmt.Errorf("batch reply %T, want Ack", m)
}

var errShed = errors.New("batch shed by the admission quota")

// batches cuts the stream into fixed-size batches; batch k has sequence k+1.
func batches(ups []wire.Update, size int) [][]wire.Update {
	var out [][]wire.Update
	for lo := 0; lo < len(ups); lo += size {
		out = append(out, ups[lo:min(lo+size, len(ups))])
	}
	return out
}

// servedResult is what the served part of a run measured.
type servedResult struct {
	satUpdates int
	satTime    time.Duration
	satRates   []float64       // updates per second of each saturation segment
	commit     []time.Duration // open-loop, due time to barrier reply
	late       []time.Duration // open-loop, send time minus due time
	sent       int
	failed     int
	mates      []int32         // the served matching at the latest checkpoint
	restore    []time.Duration // restarts from the final checkpoint
}

// session drives one server over one connection through the stream in
// cycles that the run interleaves with the static ops, so every metric
// samples the whole run. satLen of the stream's updates go closed-loop,
// the rest open-loop.
type session struct {
	w    workload
	sv   *server
	cfg  serve.Config
	c    *wireConn
	nups int
	bs   [][]wire.Update
	next int // index of the next batch to send
	res  *servedResult
	chk  *checker
}

func newSession(w workload, sv *server, cfg serve.Config, ups []wire.Update, chk *checker) (*session, error) {
	c, _, err := dialWire(sv.addr)
	if err != nil {
		sv.stop()
		return nil, err
	}
	return &session{
		w: w, sv: sv, cfg: cfg, c: c, nups: len(ups), bs: batches(ups, w.batch),
		res: &servedResult{}, chk: chk,
	}, nil
}

func (s *session) count(what string, err error) {
	s.res.sent++
	if err != nil {
		s.res.failed++
	}
	s.chk.batch(what, err)
}

// cycle runs cycle i over the next stretch of the stream: one saturation
// segment, one open-loop round, then a checkpoint request and a checked
// restart from it. The server checkpoints only on these requests, between
// the timed phases.
func (s *session) cycle(i int) error {
	// A collection now keeps the previous static slice's garbage from
	// being collected during the timed phases.
	runtime.GC()
	sat, end := s.w.cycleBounds(s.nups, i)
	if err := s.saturate(sat); err != nil {
		return err
	}
	if err := s.openLoop(end); err != nil {
		return err
	}
	if err := s.checkpoint(); err != nil {
		return err
	}
	_, err := s.restart()
	return err
}

// cycleBounds returns, for cycle i over a stream of nups updates, the batch
// index where the cycle stops sending closed-loop and the index where it
// ends: each cycle takes a cycles-th of the closed-loop batches (those
// holding the first satLen updates), then a cycles-th of the rest.
func (w workload) cycleBounds(nups, i int) (sat, end int) {
	nbatches := (nups + w.batch - 1) / w.batch
	nsat := (min(w.satLen, nups) + w.batch - 1) / w.batch
	open := nbatches - nsat
	sat = nsat*(i+1)/cycles + open*i/cycles
	return sat, sat + open*(i+1)/cycles - open*i/cycles
}

// saturate sends batches up to index hi closed-loop, sendWindow in flight,
// ending at a flush barrier, and records the segment's throughput.
func (s *session) saturate(hi int) error {
	t0 := time.Now()
	updates, outstanding := 0, 0
	drain := func() {
		for ; outstanding > 0; outstanding-- {
			s.count("serve: saturation batch", batchReply(s.c.recv()))
		}
	}
	for ; s.next < hi; s.next++ {
		if err := s.c.send(wire.Batch{Seq: uint64(s.next + 1), Updates: s.bs[s.next]}); err != nil {
			return err
		}
		updates += len(s.bs[s.next])
		outstanding++
		if outstanding == sendWindow {
			if err := s.c.flush(); err != nil {
				return err
			}
			drain()
		}
	}
	if err := s.c.flush(); err != nil {
		return err
	}
	drain()
	applied, err := s.c.barrier()
	if err != nil {
		return err
	}
	if applied != uint64(hi) {
		return fmt.Errorf("serve: saturation committed %d of %d batches", applied, hi)
	}
	d := time.Since(t0)
	s.res.satTime += d
	s.res.satUpdates += updates
	s.res.satRates = append(s.res.satRates, float64(updates)/d.Seconds())
	return nil
}

// openLoop sends batches up to index hi at the workload's fixed offered
// rate; each batch is followed by a flush barrier and timed from its due
// time to the barrier reply.
func (s *session) openLoop(hi int) error {
	interval := time.Duration(float64(s.w.batch) / s.w.openRate * float64(time.Second))
	t0 := time.Now()
	for k := 0; s.next < hi; k, s.next = k+1, s.next+1 {
		due := t0.Add(time.Duration(k) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		s.res.late = append(s.res.late, time.Since(due))
		s.c.send(wire.Batch{Seq: uint64(s.next + 1), Updates: s.bs[s.next]})
		s.c.send(wire.FlushReq{})
		if err := s.c.flush(); err != nil {
			return err
		}
		s.count("serve: open-loop batch", batchReply(s.c.recv()))
		m, err := s.c.recv()
		if err != nil {
			return err
		}
		s.res.commit = append(s.res.commit, time.Since(due))
		if f, ok := m.(wire.FlushResp); !ok || f.Applied != uint64(s.next+1) {
			return fmt.Errorf("serve: barrier after batch %d answered %#v", s.next+1, m)
		}
	}
	return nil
}

// checkpoint asks the server for a checkpoint of the committed prefix and
// fetches the matching it serves.
func (s *session) checkpoint() error {
	m, err := s.c.roundTrip(wire.CheckpointReq{})
	if err != nil {
		return err
	}
	if r, ok := m.(wire.CheckpointResp); !ok || r.Seq != uint64(s.next) {
		return fmt.Errorf("serve: checkpoint request answered %#v", m)
	}
	s.res.mates, err = s.c.matching()
	return err
}

// restart times a restart of a second server from the latest checkpoint
// while the first stays up, and checks both serve the same matching.
func (s *session) restart() (time.Duration, error) {
	runtime.GC()
	return restart(s.cfg, uint64(s.next), s.res.mates, s.chk)
}

// close quits the server and waits for it to stop.
func (s *session) close() error {
	defer s.sv.stop()
	defer s.c.conn.Close()
	if s.next != len(s.bs) {
		return fmt.Errorf("serve: stream stopped at batch %d of %d", s.next, len(s.bs))
	}
	_, err := s.c.roundTrip(wire.Quit{})
	return err
}

// restart times a restart from the newest checkpoint in cfg.CheckpointDir
// until the first Welcome, then checks the restored server serves the
// matching it had before.
func restart(cfg serve.Config, applied uint64, want []int32, chk *checker) (time.Duration, error) {
	dir := cfg.CheckpointDir
	cfg.CheckpointDir, cfg.CheckpointEvery = "", 0
	t0 := time.Now()
	ck, _, err := serve.RestoreLatest(nil, dir)
	if err != nil {
		return 0, err
	}
	s, err := serve.NewFromCheckpoint(cfg, ck)
	if err != nil {
		return 0, err
	}
	sv, err := startServer(s)
	if err != nil {
		return 0, err
	}
	defer sv.stop()
	c, wel, err := dialWire(sv.addr)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	defer c.conn.Close()
	chk.op("serve: restart", nil)
	if wel.Applied != applied {
		chk.fail(fmt.Errorf("serve: restored server resumes at %d, want %d", wel.Applied, applied))
	}
	mates, err := c.matching()
	if err != nil {
		return 0, err
	}
	if !slices.Equal(mates, want) {
		chk.fail(errors.New("serve: restored matching differs from the matching before the restart"))
	}
	return d, nil
}

// tracedRestores is how many times the traced replay restores its final
// checkpoint.
const tracedRestores = 5

// replayResult is what the direct replay measured.
type replayResult struct {
	mates    []int32
	metrics  dynmatch.Metrics
	budget   int64 // 0 for backends without a per-update budget
	apply    []time.Duration
	ckptMB   []float64
	encodeNs float64
	decodeNs float64
}

// Span names of the served path.
const (
	spanEncode     = "wire.EncodeFrame"
	spanDecode     = "wire.DecodeFrame"
	spanApply      = "Matcher.Insert/Delete"
	spanCheckpoint = "serve.checkpoint"
	spanMarshal    = "Matcher.MarshalCheckpoint"
	spanStoreWrite = "serve.Store.Write"
	spanRestore    = "serve.restore"
	spanRestoreLtd = "serve.RestoreLatest"
	spanBackendRes = "Backend.Restore"
)

// replay applies the served stream straight to a matcher made through
// serve.Backends() with the server's parameters, batch by batch. With a
// tracer it also encodes and decodes every batch frame, writes a
// checkpoint into dir where each cycle ends, as the served run does, and
// restores from the latest, with a span around each public call.
func replay(w workload, cfg serve.Config, ups []wire.Update, tr *tracer, dir string, diverge bool) (*replayResult, error) {
	b, err := serve.BackendByName(cfg.Backend)
	if err != nil {
		return nil, err
	}
	m, err := b.New(cfg.N, cfg.Beta, cfg.Eps, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var store *serve.Store
	if tr != nil {
		if store, err = serve.OpenStore(nil, dir, 0); err != nil {
			return nil, err
		}
	}
	res := &replayResult{}
	checkpoint := func(seq uint64) error {
		id := tr.begin(spanCheckpoint, 0)
		defer tr.end(id)
		sub := tr.begin(spanMarshal, id)
		payload, err := m.MarshalCheckpoint()
		tr.end(sub)
		if err != nil {
			return err
		}
		sub = tr.begin(spanStoreWrite, id)
		_, _, n, err := store.Write(&serve.Checkpoint{
			Applied: seq, N: cfg.N, Beta: cfg.Beta, Eps: cfg.Eps, Seed: cfg.Seed,
			Backend: b.Name, Payload: payload,
		})
		tr.end(sub)
		res.ckptMB = append(res.ckptMB, float64(n)/1e6)
		return err
	}
	var encNs, decNs int64
	bs := batches(ups, w.batch)
	cycle := 0
	_, cycleEnd := w.cycleBounds(len(ups), cycle)
	for k, batch := range bs {
		if diverge && k == 0 {
			continue
		}
		if tr != nil {
			id := tr.begin(spanEncode, 0)
			frame := wire.EncodeFrame(wire.Batch{Seq: uint64(k + 1), Updates: batch})
			encNs += int64(tr.end(id))
			id = tr.begin(spanDecode, 0)
			msg, rest, err := wire.DecodeFrame(frame)
			decNs += int64(tr.end(id))
			if err != nil {
				return nil, fmt.Errorf("wire: decoding batch %d: %w", k+1, err)
			}
			if len(rest) != 0 || !reflect.DeepEqual(msg, wire.Batch{Seq: uint64(k + 1), Updates: batch}) {
				return nil, fmt.Errorf("wire: batch %d does not survive an encode/decode round trip", k+1)
			}
		}
		id := tr.begin(spanApply, 0)
		for _, u := range batch {
			if u.Insert {
				m.Insert(u.U, u.V)
			} else {
				m.Delete(u.U, u.V)
			}
		}
		if tr != nil {
			res.apply = append(res.apply, tr.end(id))
		}
		if tr != nil && k+1 == cycleEnd {
			if err := checkpoint(uint64(k + 1)); err != nil {
				return nil, err
			}
			cycle++
			_, cycleEnd = w.cycleBounds(len(ups), cycle)
		}
	}
	res.mates = m.Matching().Mates()
	if dm, ok := m.(interface{ Metrics() dynmatch.Metrics }); ok {
		res.metrics = dm.Metrics()
	}
	if bm, ok := m.(interface{ Budget() int64 }); ok {
		res.budget = bm.Budget()
	}
	if tr == nil {
		return res, nil
	}
	res.encodeNs = float64(encNs) / float64(len(ups))
	res.decodeNs = float64(decNs) / float64(len(ups))
	for i := 0; i < tracedRestores; i++ {
		id := tr.begin(spanRestore, 0)
		sub := tr.begin(spanRestoreLtd, id)
		ck, _, err := serve.RestoreLatest(nil, dir)
		tr.end(sub)
		if err != nil {
			return nil, err
		}
		sub = tr.begin(spanBackendRes, id)
		rm, err := b.Restore(ck.Payload)
		tr.end(sub)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		if !slices.Equal(rm.Matching().Mates(), res.mates) {
			return nil, errors.New("serve: Backend.Restore matching differs from the replayed one")
		}
	}
	return res, nil
}
