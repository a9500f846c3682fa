package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"softmem/internal/core"
	"softmem/internal/kvstore"
	"softmem/internal/pages"
)

// serveCfg shapes the serve workload.
type serveCfg struct {
	shards    int // NumCPU, softkv's default on this machine
	keys      int // keyspace, wholly preloaded
	valueSize int
	zipfS     float64
	depth     int // commands per pipelined batch
	getPct    int
	warmup    int // untimed ops
	ops       int // timed ops
	ladderOps int // ops replayed at each ladder rung in traced rounds
}

func defaultServeConfig() serveCfg {
	return serveCfg{
		shards:    runtime.NumCPU(),
		keys:      100000,
		valueSize: 256,
		zipfS:     1.1,
		depth:     16,
		getPct:    90,
		warmup:    32000,
		ops:       320000,
		ladderOps: 64000,
	}
}

type serveWorkload struct {
	cfg   serveCfg
	seed  uint64
	names []string
}

func newServeWorkload(cfg serveCfg, seed uint64) *serveWorkload {
	return &serveWorkload{cfg: cfg, seed: seed, names: keyNames(cfg.keys)}
}

// serveSchedule draws the connection's ops: warm-up, timed region, then
// the ops the ladder replays.
func serveSchedule(cfg serveCfg, seed, sub uint64) schedule {
	r := rand.New(rand.NewPCG(seed, sub<<8|1))
	z := rand.NewZipf(r, cfg.zipfS, 1, uint64(cfg.keys-1))
	n := cfg.warmup + cfg.ops + cfg.ladderOps
	sc := schedule{kinds: make([]uint8, n), keys: make([]int32, n)}
	for i := range sc.kinds {
		sc.keys[i] = int32(z.Uint64())
		if r.IntN(100) < cfg.getPct {
			sc.kinds[i] = opGet
		} else {
			sc.kinds[i] = opSet
		}
	}
	return sc
}

// respConn is a minimal pipelining RESP client with reused buffers, so
// the client's own garbage stays out of the heap metric.
type respConn struct {
	nc  net.Conn
	r   *bufio.Reader
	w   *bufio.Writer
	num []byte
}

func dialResp(addr string) (*respConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &respConn{nc: nc, r: bufio.NewReaderSize(nc, 64<<10), w: bufio.NewWriterSize(nc, 64<<10)}, nil
}

func (c *respConn) bulk(b []byte) {
	c.w.WriteByte('$')
	c.num = strconv.AppendInt(c.num[:0], int64(len(b)), 10)
	c.w.Write(c.num)
	c.w.WriteString("\r\n")
	c.w.Write(b)
	c.w.WriteString("\r\n")
}

func (c *respConn) bulkString(s string) {
	c.w.WriteByte('$')
	c.num = strconv.AppendInt(c.num[:0], int64(len(s)), 10)
	c.w.Write(c.num)
	c.w.WriteString("\r\n")
	c.w.WriteString(s)
	c.w.WriteString("\r\n")
}

func (c *respConn) get(key string) {
	c.w.WriteString("*2\r\n$3\r\nGET\r\n")
	c.bulkString(key)
}

func (c *respConn) set(key string, v []byte) {
	c.w.WriteString("*3\r\n$3\r\nSET\r\n")
	c.bulkString(key)
	c.bulk(v)
}

var (
	errReply  = errors.New("unexpected reply")
	errServer = errors.New("server error reply")
)

// reply reads one reply: a bulk string into dst (hit false for a nil
// bulk), or a simple string (hit true). Error replies are errors.
func (c *respConn) reply(dst []byte) ([]byte, bool, error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return dst, false, err
	}
	if len(line) < 3 {
		return dst, false, errReply
	}
	body := line[1 : len(line)-2]
	switch line[0] {
	case '+':
		return dst, true, nil
	case '-':
		return dst, false, errServer
	case '$':
		n, err := strconv.Atoi(string(body))
		if err != nil {
			return dst, false, errReply
		}
		if n < 0 {
			return dst, false, nil
		}
		if cap(dst) < n+2 {
			dst = make([]byte, n+2)
		}
		dst = dst[:n+2]
		if _, err := io.ReadFull(c.r, dst); err != nil {
			return dst, false, err
		}
		return dst[:n], true, nil
	}
	return dst, false, errReply
}

// connRun is the state of the round's one connection. It owns every key,
// so the last version it wrote is the one its GETs must see.
type connRun struct {
	c       *respConn
	model   *versionModel
	sched   schedule
	pos     int
	getNs   []uint32
	setNs   []uint32
	failed  int64
	err     error
	kinds   []uint8
	keys    []int32
	vers    []uint32
	val     []byte
	replies []byte
}

// batches runs n ops from the connection's schedule in pipelined
// batches of depth, checking every reply; timed records latencies.
func (cr *connRun) batches(n, depth, valueSize int, names []string, timed bool) {
	for done := 0; done < n && cr.err == nil; done += depth {
		b := depth
		if n-done < b {
			b = n - done
		}
		cr.kinds, cr.keys, cr.vers = cr.kinds[:0], cr.keys[:0], cr.vers[:0]
		for j := 0; j < b; j++ {
			kind, k := cr.sched.kinds[cr.pos], int(cr.sched.keys[cr.pos])
			cr.pos++
			var v uint32
			if kind == opGet {
				v = cr.model.get(k)
				cr.c.get(names[k])
			} else {
				v = cr.model.set(k)
				cr.val = fillValue(cr.val, k, v, valueSize)
				cr.c.set(names[k], cr.val)
			}
			cr.kinds, cr.keys, cr.vers = append(cr.kinds, kind), append(cr.keys, int32(k)), append(cr.vers, v)
		}
		t0 := time.Now()
		if err := cr.c.w.Flush(); err != nil {
			cr.err = err
			return
		}
		for j := 0; j < b; j++ {
			got, hit, err := cr.c.reply(cr.replies)
			if err != nil && !errors.Is(err, errServer) {
				cr.err = err
				return
			}
			cr.replies = got[:0]
			ok := err == nil
			if ok && cr.kinds[j] == opGet {
				ok = cr.model.check(int(cr.keys[j]), cr.vers[j], got, hit)
			}
			if !ok {
				cr.failed++
			}
		}
		d := nsSince(t0)
		if timed {
			for j := 0; j < b; j++ {
				if cr.kinds[j] == opGet {
					cr.getNs = append(cr.getNs, d)
				} else {
					cr.setNs = append(cr.setNs, d)
				}
			}
		}
	}
}

// serveStack is one round's deployment: a sharded store with no daemon
// and an unlimited budget behind an in-process RESP server on loopback.
type serveStack struct {
	sma   *core.SMA
	store *kvstore.Store
	srv   *kvstore.Server
	done  chan error
	addr  string
}

func (w *serveWorkload) openStack() (*serveStack, error) {
	st := &serveStack{sma: core.New(core.Config{Machine: pages.NewPool(0)})}
	st.store = kvstore.New(st.sma, kvstore.WithShards(w.cfg.shards))
	st.srv = kvstore.NewServer(st.store, func(string, ...any) {})
	addr, err := st.srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.store.Close()
		return nil, err
	}
	st.addr = addr.String()
	st.done = make(chan error, 1)
	go func() { st.done <- st.srv.Serve() }()
	return st, nil
}

func (st *serveStack) close() {
	st.srv.Close()
	<-st.done
	st.store.Close()
}

func (w *serveWorkload) round(o *benchOptions, traced bool, sub uint64) (*roundResult, error) {
	cfg := w.cfg
	sched := serveSchedule(cfg, w.seed, sub)
	start := time.Now()
	st, err := w.openStack()
	if err != nil {
		return nil, err
	}
	defer st.close()
	val := make([]byte, 0, cfg.valueSize)
	for k := 0; k < cfg.keys; k++ {
		if err := st.store.Set(w.names[k], fillValue(val, k, 0, cfg.valueSize)); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	rc, err := dialResp(st.addr)
	if err != nil {
		return nil, err
	}
	defer rc.nc.Close()
	cr := &connRun{
		c: rc, model: newVersionModel(cfg.keys, cfg.valueSize), sched: sched,
		getNs: make([]uint32, 0, cfg.ops), setNs: make([]uint32, 0, cfg.ops),
		val: make([]byte, 0, cfg.valueSize), replies: make([]byte, 0, 1024),
	}
	cr.batches(cfg.warmup, cfg.depth, cfg.valueSize, w.names, false)

	r := &roundResult{}
	r.setup = time.Since(start)
	var s0 kvstore.Stats
	var e0 kvstore.EngineStats
	if traced {
		s0, e0 = st.store.Stats(), st.store.EngineStats()
	}
	g := beginRegion()
	cr.batches(cfg.ops, cfg.depth, cfg.valueSize, w.names, true)
	g.end(r)
	if cr.err != nil {
		return nil, cr.err
	}
	r.ops = int64(cfg.ops)
	r.getNs, r.setNs = cr.getNs, cr.setNs
	r.failed = cr.failed
	r.attempted = int64(cfg.warmup + cfg.ops)

	if traced {
		s1, e1 := st.store.Stats(), st.store.EngineStats()
		gets := float64(s1.Gets - s0.Gets)
		r.layer = map[string]metric{}
		put := func(name string, v float64) { r.layer[name] = metric{Value: v, Unit: layerUnits[name]} }
		put("kvstore.lockfree_hit_ratio", ratio(float64(s1.LockFreeHits-s0.LockFreeHits), gets))
		put("kvstore.lockfree_fallbacks", float64(s1.LockFreeFallbacks-s0.LockFreeFallbacks))
		put("kvstore.cmds_per_lock", ratio(float64(e1.Commands-e0.Commands), float64(e1.LockAcquisitions-e0.LockAcquisitions)))
		put("kvstore.busy_sheds", float64(e1.Overloaded-e0.Overloaded))
		put("kvstore.hit_ratio", ratio(float64(s1.Hits-s0.Hits), gets))
		tr := newTracer()
		if err := w.ladder(st, cr, tr, r.layer); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		tr.printSelfTimes(os.Stderr, "serve ladder")
		if err := tr.writeTo(filepath.Join(o.workDir, "trace-"+o.workload+".tsv")); err != nil {
			return nil, err
		}
	}

	live, err := liveValueBytes(st.store, func(int) int { return cfg.valueSize })
	if err != nil {
		return nil, err
	}
	r.spaceAmp = float64(st.sma.Stats().UsedPages*pages.Size) / float64(live)
	return r, nil
}
