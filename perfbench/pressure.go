package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"softmem/internal/core"
	"softmem/internal/ipc"
	"softmem/internal/kvstore"
	"softmem/internal/metrics"
	"softmem/internal/pages"
	"softmem/internal/sds"
	"softmem/internal/smd"
	"softmem/internal/spill"
)

// pressureCfg shapes the pressure and spill workloads.
type pressureCfg struct {
	spill     bool
	shards    int // KV string-table shards: NumCPU, softkv's default on this machine
	keys      int // keyspace (Zipf over it)
	zipfS     float64
	partition int // SMD partition in pages, smaller than the KV working set
	warmup    int // untimed slots before the timed region
	ops       int // timed KV operation slots per round
	getPct    int // GET share in percent; SET takes the rest but delPct
	delPct    int

	antEvery int // the antagonist pushes a chunk every antEvery KV ops
	antChunk int // chunk bytes
	antHigh  int // once it holds antHigh chunks ...
	antPop   int // ... it pops antPop of them

	segmentBytes int64 // spill segment rotation size, so compaction has sealed segments

	// probeKeys and probePushes shape the order probe that closes each
	// pressure round (0 keys: no probe).
	probeKeys, probePushes, probePartition int
}

func pressureConfig(withSpill bool) pressureCfg {
	c := pressureCfg{
		spill:     withSpill,
		shards:    runtime.NumCPU(),
		keys:      20000,
		zipfS:     1.1,
		partition: 16 << 20 / pages.Size,
		warmup:    20000,
		ops:       200000,
		getPct:    70,
		antEvery:  50,
		antChunk:  16 << 10,
		antHigh:   200,
		antPop:    150,
	}
	if withSpill {
		// Every revoked entry and every record compaction copies is
		// compressed with a fresh flate writer, about 1 MB of garbage
		// each, so the keyspace and antagonist are scaled down by four,
		// the partition kept below the working set, and the round cut to
		// a few seconds. Compaction runs once, at the round's last slot.
		c.keys, c.partition = 5000, 6<<20/pages.Size
		c.antHigh, c.antPop = 50, 38
		c.warmup, c.ops = 3000, 30000
		c.getPct, c.delPct = 70, 5
		c.segmentBytes = 256 << 10
	} else {
		c.probeKeys, c.probePushes, c.probePartition = 4096, 250, 2048
	}
	return c
}

// Op kinds of a schedule slot.
const (
	opGet uint8 = iota
	opSet
	opDel
)

// opNames name the root span of a traced KV op.
var opNames = [...]string{opGet: "kv.get", opSet: "kv.set", opDel: "kv.del"}

// schedule is a pre-drawn sequence of (kind, key) draws. A round walks
// it from the start; a GET miss inserts a refill SET of the same key in
// the next slot, so a round always issues exactly the same number of
// operations whatever the store answers.
type schedule struct {
	kinds []uint8
	keys  []int32
}

func newSchedule(seed, sub uint64, n, keys int, s float64, getPct, delPct int) schedule {
	r := rand.New(rand.NewPCG(seed, 0x5eed+sub))
	z := rand.NewZipf(r, s, 1, uint64(keys-1))
	sc := schedule{kinds: make([]uint8, n), keys: make([]int32, n)}
	for i := range sc.kinds {
		sc.keys[i] = int32(z.Uint64())
		switch p := r.IntN(100); {
		case p < getPct:
			sc.kinds[i] = opGet
		case p < getPct+delPct:
			sc.kinds[i] = opDel
		default:
			sc.kinds[i] = opSet
		}
	}
	return sc
}

type pressureWorkload struct {
	cfg    pressureCfg
	seed   uint64
	names  []string
	chunk  []byte
	rounds int
}

func newPressureWorkload(cfg pressureCfg, seed uint64) *pressureWorkload {
	w := &pressureWorkload{
		cfg:   cfg,
		seed:  seed,
		names: keyNames(cfg.keys),
		chunk: make([]byte, cfg.antChunk),
	}
	for i := range w.chunk {
		w.chunk[i] = byte(i)
	}
	return w
}

// pressureStack is one round's deployment: an SMD served over ipc on a
// Unix socket, the KV process's SMA and store, and the antagonist's SMA
// and queue, each SMA dialled to the daemon as softkv is.
type pressureStack struct {
	daemon   *smd.Daemon
	srv      *ipc.Server
	srvDone  chan error
	kvSMA    *core.SMA
	antSMA   *core.SMA
	kvCli    *ipc.Client
	antCli   *ipc.Client
	store    *kvstore.Store
	queue    *sds.SoftQueue[[]byte]
	sp       *spill.Store
	spillDir string
	sock     string
	evicted  atomic.Int64 // string entries the store reports revoked
}

func (w *pressureWorkload) openStack(o *benchOptions, tr *tracer) (*pressureStack, error) {
	st := &pressureStack{}
	w.rounds++
	tag := strconv.Itoa(os.Getpid()) + "-" + strconv.Itoa(w.rounds)
	st.sock = filepath.Join(o.workDir, tag+".sock")
	st.daemon = smd.NewDaemon(smd.Config{
		TotalPages: w.cfg.partition,
		// The KV working set exceeds the partition, so the store must be
		// able to revoke its own oldest entries to take new ones.
		AllowSelfReclaim: true,
		EventLog:         -1,
		TraceLog:         -1,
	})
	st.srv = ipc.NewServer(st.daemon, func(string, ...any) {})
	if _, err := st.srv.Listen("unix", st.sock); err != nil {
		return nil, err
	}
	st.srvDone = make(chan error, 1)
	go func() { st.srvDone <- st.srv.Serve() }()

	dial := func(name string, sma *core.SMA, demand, request, release string) (*ipc.Client, error) {
		var target ipc.DemandTarget = sma
		if tr != nil {
			target = &tracedTarget{sma: sma, t: tr, demand: demand}
		}
		cli, err := ipc.Dial("unix", st.sock, name, target)
		if err != nil {
			return nil, err
		}
		var dc core.DaemonClient = cli
		if tr != nil {
			dc = &tracedDaemon{inner: cli, t: tr, request: request, release: release}
		}
		sma.AttachDaemon(dc)
		return cli, nil
	}
	var err error
	st.kvSMA = core.New(core.Config{Machine: pages.NewPool(0)})
	if st.kvCli, err = dial("kv", st.kvSMA, spanKVDemand, spanKVRequest, spanKVRelease); err != nil {
		st.close()
		return nil, err
	}
	st.antSMA = core.New(core.Config{Machine: pages.NewPool(0)})
	if st.antCli, err = dial("antagonist", st.antSMA, spanAntDemand, spanAntRequest, spanAntRelease); err != nil {
		st.close()
		return nil, err
	}
	opts := []kvstore.Option{
		kvstore.WithShards(w.cfg.shards),
		kvstore.WithPolicy(sds.EvictOldest),
		kvstore.WithOnReclaim(func(string) { st.evicted.Add(1) }),
	}
	if w.cfg.spill {
		st.spillDir = filepath.Join(o.workDir, "spill-"+tag)
		st.sp, err = spill.Open(spill.Config{
			Dir:             st.spillDir,
			BudgetBytes:     64 << 30, // above anything a round writes: nothing is dropped legally
			SegmentBytes:    w.cfg.segmentBytes,
			CompactInterval: -1, // compaction runs at fixed points of the schedule
		})
		if err != nil {
			st.close()
			return nil, err
		}
		opts = append(opts, kvstore.WithSpill(st.sp))
	}
	st.store = kvstore.New(st.kvSMA, opts...)
	st.queue = sds.NewSoftQueue[[]byte](st.antSMA, "antagonist", sds.BytesCodec{}, nil)
	return st, nil
}

func (st *pressureStack) close() {
	if st.store != nil {
		st.store.Close()
	}
	if st.queue != nil {
		st.queue.Close()
	}
	for _, c := range []*ipc.Client{st.kvCli, st.antCli} {
		if c != nil {
			_ = c.Close()
		}
	}
	if st.srvDone != nil {
		st.srv.Close()
		<-st.srvDone
	}
	if st.sp != nil {
		st.sp.Close()
	}
	if st.spillDir != "" {
		_ = os.RemoveAll(st.spillDir)
	}
	_ = os.Remove(st.sock)
}

// liveValueBytes is the value bytes of the keys the store holds, from its
// key listing and the workload's value sizes. Values are what the store
// keeps in soft pages; its key index lives on the Go heap.
func liveValueBytes(store *kvstore.Store, size func(k int) int) (int64, error) {
	keys, err := store.Keys("*")
	if err != nil {
		return 0, err
	}
	var n int64
	for _, key := range keys {
		k, err := strconv.Atoi(key[len("key:"):])
		if err != nil {
			return 0, fmt.Errorf("unexpected key %q", key)
		}
		n += int64(size(k))
	}
	return n, nil
}

// layerSnap is the program-exported counters read at the edges of the
// timed region.
type layerSnap struct {
	kv       kvstore.Stats
	sma      core.Stats
	daemon   smd.Stats
	deferred int64
	spill    metrics.SpillSnapshot
}

func (st *pressureStack) snap() layerSnap {
	s := layerSnap{kv: st.store.Stats(), sma: st.kvSMA.Stats(), daemon: st.daemon.Stats()}
	for _, c := range st.kvSMA.Contexts() {
		s.deferred += c.Heap.DeferredOps
	}
	if st.sp != nil {
		s.spill = st.sp.Stats()
	}
	return s
}

func (st *pressureStack) limboPages() int {
	n := 0
	for _, c := range st.kvSMA.Contexts() {
		n += c.Heap.LimboPages
	}
	return n
}

// segmentBytes returns the size of each segment file in the spill
// directory.
func segmentBytes(dir string) (map[string]int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		out[e.Name()] = info.Size()
	}
	return out, nil
}

// compactStats accumulates the benchmark's own timed Compact() calls.
type compactStats struct {
	durs    []float64 // ms
	written int64     // bytes compaction copied forward
}

func (w *pressureWorkload) compact(st *pressureStack, tr *tracer, cs *compactStats) error {
	before, err := segmentBytes(st.spillDir)
	if err != nil {
		return err
	}
	disk0 := st.sp.BytesOnDisk()
	t0 := time.Now()
	st.sp.Compact()
	d := time.Since(t0)
	tr.record(spanCompact, t0, d)
	after, err := segmentBytes(st.spillDir)
	if err != nil {
		return err
	}
	// Bytes on disk change by what compaction copied forward minus the
	// segments it removed.
	var removed int64
	for name, size := range before {
		if _, ok := after[name]; !ok {
			removed += size
		}
	}
	cs.written += st.sp.BytesOnDisk() - disk0 + removed
	cs.durs = append(cs.durs, float64(d)/1e6)
	return nil
}

// roundState is the round loop's running state.
type roundState struct {
	tr           *tracer
	sched        schedule
	refill       int32
	draw         int
	lastEvicted  int64
	disagree     int64
	antErrs      int64
	waits        []uint32 // antagonist pushes that waited on a KV reclaim cycle
	waitPages    int64
	limboMax     int
	promoteNs    []uint32
	spillWritten int64 // segment bytes appended outside compaction
}

func (w *pressureWorkload) round(o *benchOptions, traced bool, sub uint64) (*roundResult, error) {
	sched := newSchedule(w.seed, sub, w.cfg.warmup+w.cfg.ops, w.cfg.keys, w.cfg.zipfS, w.cfg.getPct, w.cfg.delPct)
	start := time.Now()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	st, err := w.openStack(o, tr)
	if err != nil {
		return nil, err
	}
	defer st.close()
	cfg := w.cfg
	r := &roundResult{getNs: make([]uint32, 0, cfg.ops), setNs: make([]uint32, 0, cfg.ops)}
	rs := &roundState{tr: tr, sched: sched, refill: -1}

	// One of the two models is live; write records a successful SET in
	// it and version holds each key's last written version.
	var om *orderModel
	var sm *spillModel
	var write func(k int)
	var version []uint32
	if cfg.spill {
		sm = newSpillModel(cfg.keys)
		write, version = sm.write, sm.version
	} else {
		om = newOrderModel(cfg.keys)
		write, version = om.write, om.version
	}
	buf := make([]byte, 0, 8<<10)
	val := make([]byte, 0, 8<<10)

	// Preload the whole keyspace oldest-first; under the partition this
	// already revokes.
	for k := 0; k < cfg.keys; k++ {
		v := fillValue(val, k, version[k]+1, valueSize(k))
		if err := st.store.Set(w.names[k], v); err != nil {
			return nil, fmt.Errorf("preload %d: %w", k, err)
		}
		// Revocation during a SET happens while it allocates, before the
		// new value is linked in, so the model revokes first.
		w.applyEvictions(st, om, rs)
		write(k)
	}

	var g region
	var s0 layerSnap
	var cs compactStats
	var disk0 int64
	total := cfg.warmup + cfg.ops
	for i := 0; i < total; i++ {
		if i == cfg.warmup {
			r.setup = time.Since(start)
			if traced {
				s0 = st.snap()
				if st.sp != nil {
					disk0 = st.sp.BytesOnDisk()
				}
				tr.mu.Lock()
				tr.on = true
				tr.mu.Unlock()
			}
			g = beginRegion()
		}
		timed := i >= cfg.warmup
		if i%cfg.antEvery == cfg.antEvery-1 {
			w.antagonist(st, om, rs, timed)
		}
		// Spill compaction runs once a round, before the last timed slot.
		if cfg.spill && i == total-1 {
			if traced {
				rs.spillWritten += st.sp.BytesOnDisk() - disk0
			}
			if err := w.compact(st, tr, &cs); err != nil {
				return nil, err
			}
			disk0 = st.sp.BytesOnDisk()
		}
		kind, k := w.next(rs)
		r.attempted++
		ok := true
		if traced && timed {
			tr.beginOp(opNames[kind])
		}
		switch kind {
		case opGet:
			var p0 int64
			if traced && st.sp != nil {
				p0 = st.sp.Metrics().Promotions.Value()
			}
			t0 := time.Now()
			got, hit, err := st.store.GetAppend(buf[:0], w.names[k])
			d := nsSince(t0)
			if timed {
				r.getNs = append(r.getNs, d)
				if traced && st.sp != nil && st.sp.Metrics().Promotions.Value() > p0 {
					rs.promoteNs = append(rs.promoteNs, d)
				}
			}
			w.applyEvictions(st, om, rs)
			switch {
			case err != nil:
				ok = false
			case sm != nil:
				ok = sm.checkGet(k, got, hit)
			default:
				// checkGet compares a hit with the last value when the model
				// holds the key; valueOK rebuilds it only for a hit the
				// model has already revoked.
				agree := om.checkGet(k, got, hit)
				if hit && !agree {
					ok = om.valueOK(k, got)
				}
				if !agree && timed {
					rs.disagree++
				}
			}
			if !hit {
				rs.refill = int32(k)
			}
			buf = got
		case opSet:
			v := fillValue(val, k, version[k]+1, valueSize(k))
			t0 := time.Now()
			err := st.store.Set(w.names[k], v)
			d := nsSince(t0)
			if timed {
				r.setNs = append(r.setNs, d)
			}
			w.applyEvictions(st, om, rs)
			if err != nil {
				ok = false
			} else {
				write(k)
			}
		case opDel:
			existed, err := st.store.Del(w.names[k])
			ok = err == nil && sm.checkDel(k, existed)
			sm.del(k)
		}
		if traced && timed {
			tr.endOp()
		}
		if !ok {
			r.failed++
		}
	}
	r.ops = int64(cfg.ops)
	g.end(r)
	var s1 layerSnap
	if traced {
		tr.mu.Lock()
		tr.on = false
		tr.mu.Unlock()
		s1 = st.snap()
		if st.sp != nil {
			rs.spillWritten += st.sp.BytesOnDisk() - disk0
		}
	}
	if rs.antErrs > 0 {
		return nil, fmt.Errorf("antagonist allocation failed %d times", rs.antErrs)
	}

	live, err := liveValueBytes(st.store, valueSize)
	if err != nil {
		return nil, err
	}
	if live > 0 {
		r.spaceAmp = float64(st.kvSMA.Stats().UsedPages*pages.Size) / float64(live)
	}
	if traced {
		r.layer = w.layerMetrics(st, rs, s0, s1, &cs)
		r.waits, r.waitPages = rs.waits, rs.waitPages
		tr.printSelfTimes(os.Stderr, fmt.Sprintf("%s round %d", o.workload, w.rounds))
		if err := tr.writeTo(filepath.Join(o.workDir, "trace-"+o.workload+".tsv")); err != nil {
			return nil, err
		}
	}
	if cfg.probeKeys > 0 {
		att, failed, err := orderProbe(cfg)
		if err != nil {
			return nil, err
		}
		r.attempted += att
		r.failed += failed
	}
	return r, nil
}

// next returns the slot's op: the refill owed to a GET miss, else the
// next scheduled draw.
func (w *pressureWorkload) next(rs *roundState) (uint8, int) {
	if rs.refill >= 0 {
		k := rs.refill
		rs.refill = -1
		return opSet, int(k)
	}
	i := rs.draw
	rs.draw++
	return rs.sched.kinds[i], int(rs.sched.keys[i])
}

// applyEvictions advances the oldest-first model by the entries the
// store reports revoked since the last call.
func (w *pressureWorkload) applyEvictions(st *pressureStack, om *orderModel, rs *roundState) {
	n := st.evicted.Load()
	if om != nil {
		om.evict(n - rs.lastEvicted)
	}
	rs.lastEvicted = n
}

// antagonist runs one step of the competing process: push a chunk, and
// once it holds antHigh chunks, pop antPop of them.
func (w *pressureWorkload) antagonist(st *pressureStack, om *orderModel, rs *roundState, timed bool) {
	tr := rs.tr
	var spans int
	if tr != nil && timed {
		spans = len(tr.spans)
		tr.beginOp("ant.push")
	}
	t0 := time.Now()
	err := st.queue.Push(w.chunk)
	d := nsSince(t0)
	if tr != nil && timed {
		tr.endOp()
		if pagesMoved, waited := kvDemandsSince(tr, spans); waited {
			rs.waits = append(rs.waits, d)
			rs.waitPages += int64(pagesMoved)
			if n := st.limboPages(); n > rs.limboMax {
				rs.limboMax = n
			}
		}
	}
	if err != nil {
		rs.antErrs++
	}
	w.applyEvictions(st, om, rs)
	if st.queue.Len() >= w.cfg.antHigh {
		for i := 0; i < w.cfg.antPop; i++ {
			if _, ok, err := st.queue.Pop(); err != nil || !ok {
				break
			}
		}
	}
}

// kvDemandsSince reports the pages the KV process released in demands
// recorded since span index from, and whether there were any.
func kvDemandsSince(tr *tracer, from int) (int, bool) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n, any := 0, false
	for i := from; i < len(tr.spans); i++ {
		if tr.spans[i].name == spanKVDemand {
			n += tr.spans[i].pages
			any = true
		}
	}
	return n, any
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func medianNs(ns []uint32, unit float64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v)
	}
	return median(xs) / unit
}

// layerMetrics computes a traced round's per-layer metrics from its
// spans and the counters the program exports.
func (w *pressureWorkload) layerMetrics(st *pressureStack, rs *roundState, s0, s1 layerSnap, cs *compactStats) map[string]metric {
	tr := rs.tr
	kids := tr.children()
	var demandUs, kvRTT, antRTT, relRTT, overhead []float64
	var released, demanded int
	for i := range tr.spans {
		s := &tr.spans[i]
		us := float64(s.dur()) / 1e3
		switch s.name {
		case spanKVDemand:
			demandUs = append(demandUs, us)
			released += s.pages
			demanded += s.demanded
		case spanKVRequest:
			kvRTT = append(kvRTT, us)
		case spanAntRequest:
			antRTT = append(antRTT, us)
			var inner int64
			cycle := false
			for _, c := range kids[i] {
				if tr.spans[c].name == spanKVDemand {
					inner += tr.spans[c].dur()
					cycle = true
				}
			}
			if cycle {
				overhead = append(overhead, float64(s.dur()-inner)/1e3)
			}
		case spanKVRelease, spanAntRelease:
			relRTT = append(relRTT, us)
		}
	}
	entries := float64(s1.kv.Reclaimed - s0.kv.Reclaimed)
	gets := float64(s1.kv.Gets - s0.kv.Gets)
	m := map[string]float64{
		"kvstore.lockfree_hit_ratio":    ratio(float64(s1.kv.LockFreeHits-s0.kv.LockFreeHits), gets),
		"kvstore.lockfree_fallbacks":    float64(s1.kv.LockFreeFallbacks - s0.kv.LockFreeFallbacks),
		"kvstore.hit_ratio":             ratio(float64(s1.kv.Hits-s0.kv.Hits), gets),
		"core.demands":                  float64(len(demandUs)),
		"core.demand_us":                median(demandUs),
		"core.pages_released":           float64(released),
		"core.demand_yield":             ratio(float64(released), float64(demanded)),
		"sds.entries_reclaimed":         entries,
		"sds.bytes_per_reclaimed_entry": ratio(float64((s1.sma.PagesReclaimed-s0.sma.PagesReclaimed)*pages.Size), entries),
		"epoch.limbo_pages_max":         float64(rs.limboMax),
		"epoch.deferred_ops":            float64(s1.deferred - s0.deferred),
		"alloc.failed_allocs":           float64(s1.kv.Soft.FailedAllocs - s0.kv.Soft.FailedAllocs),
		"smd.kv_budget_rtt_us":          median(kvRTT),
		"smd.ant_budget_rtt_us":         median(antRTT),
		"smd.requests":                  float64(s1.daemon.Requests - s0.daemon.Requests),
		"smd.reclaim_cycles":            float64(s1.daemon.ReclaimEvents - s0.daemon.ReclaimEvents),
		"smd.denied":                    float64(s1.daemon.Denied - s0.daemon.Denied),
		"smd.slack_pages":               float64(s1.daemon.SlackPages - s0.daemon.SlackPages),
		"ipc.overhead_us":               median(overhead),
		"ipc.release_calls":             float64(len(relRTT)),
		"ipc.release_rtt_us":            median(relRTT),
		"model.order_disagreements":     float64(rs.disagree),
	}
	if st.sp != nil {
		d := s1.spill
		p := s0.spill
		demoted := float64(d.DemotedBytes - p.DemotedBytes)
		m["spill.demotes"] = float64(d.Demotions - p.Demotions)
		m["spill.demote_bytes"] = demoted
		m["spill.compress_ratio"] = ratio(demoted, float64(rs.spillWritten))
		m["spill.write_amp"] = ratio(float64(rs.spillWritten+cs.written), demoted)
		m["spill.promotions"] = float64(d.Promotions - p.Promotions)
		m["spill.promote_us"] = medianNs(rs.promoteNs, 1e3)
		m["spill.compact_ms"] = median(cs.durs)
		m["spill.compacted_bytes"] = float64(d.CompactedBytes - p.CompactedBytes)
	}
	out := map[string]metric{}
	for k, v := range m {
		out[k] = metric{Value: v, Unit: layerUnits[k]}
	}
	return out
}

// orderProbe checks revocation order on inputs that do not depend on the
// seed: it writes probeKeys keys oldest-first into a fresh store of the
// workload's shape, lets an antagonist push probePushes chunks through
// the same daemon so the store must revoke, then reads every key back
// and compares hit or miss with a store-wide oldest-first model. A store
// that revokes oldest-first store-wide fails none; the count is the same
// on every round.
func orderProbe(cfg pressureCfg) (attempted, failed int64, err error) {
	d := smd.NewDaemon(smd.Config{TotalPages: cfg.probePartition, EventLog: -1, TraceLog: -1})
	kvSMA := core.New(core.Config{Machine: pages.NewPool(0)})
	kvSMA.AttachDaemon(d.Register("probe-kv", kvSMA))
	antSMA := core.New(core.Config{Machine: pages.NewPool(0)})
	antSMA.AttachDaemon(d.Register("probe-antagonist", antSMA))
	var evicted atomic.Int64
	store := kvstore.New(kvSMA,
		kvstore.WithShards(cfg.shards),
		kvstore.WithPolicy(sds.EvictOldest),
		kvstore.WithOnReclaim(func(string) { evicted.Add(1) }))
	defer store.Close()
	q := sds.NewSoftQueue[[]byte](antSMA, "probe-antagonist", sds.BytesCodec{}, nil)
	defer q.Close()

	m := newOrderModel(cfg.probeKeys)
	names := keyNames(cfg.probeKeys)
	val := make([]byte, 0, 8<<10)
	for k := range names {
		if err := store.Set(names[k], fillValue(val, k, 1, valueSize(k))); err != nil {
			return 0, 0, fmt.Errorf("order probe: set: %w", err)
		}
		m.write(k)
	}
	if n := evicted.Load(); n != 0 {
		return 0, 0, fmt.Errorf("order probe: %d entries revoked while loading", n)
	}
	chunk := make([]byte, cfg.antChunk)
	for i := 0; i < cfg.probePushes; i++ {
		if err := q.Push(chunk); err != nil {
			return 0, 0, fmt.Errorf("order probe: antagonist push: %w", err)
		}
	}
	m.evict(evicted.Load())
	buf := make([]byte, 0, 8<<10)
	for k := range names {
		got, hit, err := store.GetAppend(buf[:0], names[k])
		attempted++
		if err != nil || !m.checkGet(k, got, hit) {
			failed++
		}
		buf = got
	}
	return attempted, failed, nil
}
