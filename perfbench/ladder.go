package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"softmem/internal/alloc"
	"softmem/internal/core"
	"softmem/internal/kvstore"
	"softmem/internal/pages"
	"softmem/internal/sds"
)

// ladder replays the same slice of a serve connection's op stream at four
// rungs, each one layer lower than the last: the RESP client over TCP,
// the shard engine's Batch, the soft hash table, and the allocator
// context. The difference between adjacent rungs is the upper layer's
// self time per op.
func (w *serveWorkload) ladder(st *serveStack, cr *connRun, tr *tracer, out map[string]metric) error {
	cfg := w.cfg
	n := cfg.ladderOps
	from := cr.pos
	if from+n > len(cr.sched.kinds) {
		return fmt.Errorf("schedule too short for the ladder")
	}
	ops := schedule{kinds: cr.sched.kinds[from : from+n], keys: cr.sched.keys[from : from+n]}
	rungs := []struct {
		name string
		run  func(*rungTiming) error
	}{
		{"resp", func(rt *rungTiming) error { return w.rungResp(rt, st, cr) }},
		{"batch", func(rt *rungTiming) error { return w.rungBatch(rt, st, cr.model, ops) }},
		{"sds", func(rt *rungTiming) error { return w.rungSDS(rt, ops) }},
		{"alloc", func(rt *rungTiming) error { return w.rungAlloc(rt, ops) }},
	}
	nsPerOp := make([]float64, len(rungs))
	for i, rg := range rungs {
		var rt rungTiming
		if err := rg.run(&rt); err != nil {
			return fmt.Errorf("%s rung: %w", rg.name, err)
		}
		tr.record(spanLadder+rg.name, rt.start, rt.d)
		nsPerOp[i] = float64(rt.d.Nanoseconds()) / float64(n)
		out["ladder."+rg.name+"_ns_per_op"] = metric{Value: nsPerOp[i], Unit: "ns/op"}
		out["ladder."+rg.name+"_allocs_per_op"] = metric{Value: float64(rt.mallocs) / float64(n), Unit: "allocs/op"}
	}
	fmt.Fprintln(os.Stderr, "  ladder self time per op (rung minus the rung below):")
	for i, rg := range rungs {
		self := nsPerOp[i]
		if i+1 < len(rungs) {
			self -= nsPerOp[i+1]
		}
		fmt.Fprintf(os.Stderr, "    %-6s %10.1f ns/op  self %10.1f ns/op\n", rg.name, nsPerOp[i], self)
	}
	return nil
}

// rungTiming is what a rung's replay cost, its set-up excluded.
type rungTiming struct {
	start   time.Time
	d       time.Duration
	mallocs uint64
}

// measure times replay and counts the heap allocations it makes.
func (rt *rungTiming) measure(replay func() error) error {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rt.start = time.Now()
	err := replay()
	rt.d = time.Since(rt.start)
	runtime.ReadMemStats(&m1)
	rt.mallocs = m1.Mallocs - m0.Mallocs
	return err
}

// rungResp replays the ops over one more pipelined RESP connection to the
// round's server, continuing the connection's version model.
func (w *serveWorkload) rungResp(rt *rungTiming, st *serveStack, cr *connRun) error {
	rc, err := dialResp(st.addr)
	if err != nil {
		return err
	}
	defer rc.nc.Close()
	run := &connRun{c: rc, model: cr.model, sched: cr.sched, pos: cr.pos,
		val: make([]byte, 0, w.cfg.valueSize), replies: make([]byte, 0, 1024)}
	if err := rt.measure(func() error {
		run.batches(w.cfg.ladderOps, w.cfg.depth, w.cfg.valueSize, w.names, false)
		return run.err
	}); err != nil {
		return err
	}
	if run.failed > 0 {
		return fmt.Errorf("%d replies disagree with the model", run.failed)
	}
	return nil
}

// rungBatch replays the ops through Store.NewBatch().Exec in batches of
// the pipeline depth.
func (w *serveWorkload) rungBatch(rt *rungTiming, st *serveStack, m *versionModel, ops schedule) error {
	cfg := w.cfg
	b := st.store.NewBatch()
	vals := make([][]byte, cfg.depth)
	for i := range vals {
		vals[i] = make([]byte, 0, cfg.valueSize)
	}
	vers := make([]uint32, cfg.depth)
	return rt.measure(func() error { return w.replayBatch(b, vals, vers, m, ops) })
}

func (w *serveWorkload) replayBatch(b *kvstore.Batch, vals [][]byte, vers []uint32, m *versionModel, ops schedule) error {
	cfg := w.cfg
	for done := 0; done < len(ops.kinds); done += cfg.depth {
		b.Reset()
		end := min(done+cfg.depth, len(ops.kinds))
		for j := done; j < end; j++ {
			k := int(ops.keys[j])
			if ops.kinds[j] == opGet {
				vers[j-done] = m.get(k)
				b.Get(w.names[k])
			} else {
				vers[j-done] = m.set(k)
				vals[j-done] = fillValue(vals[j-done], k, vers[j-done], cfg.valueSize)
				b.Set(w.names[k], vals[j-done])
			}
		}
		if err := b.Exec(); err != nil {
			return err
		}
		for j := done; j < end; j++ {
			c := b.Cmd(j - done)
			if c.Err != nil {
				return c.Err
			}
			if ops.kinds[j] == opGet && !m.check(int(ops.keys[j]), vers[j-done], c.Val, c.Ok) {
				return fmt.Errorf("GET %s disagrees with the model", w.names[ops.keys[j]])
			}
		}
	}
	return nil
}

// rungSDS replays the ops on a fresh SoftHashTable configured as the
// store's shards are (lock-free reads on), preloaded at version 0.
func (w *serveWorkload) rungSDS(rt *rungTiming, ops schedule) error {
	cfg := w.cfg
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	ht := sds.NewSoftHashTable[string](sma, "ladder", sds.HashTableConfig[string]{LockFreeReads: true})
	defer ht.Close()
	m := newVersionModel(cfg.keys, cfg.valueSize)
	val := make([]byte, 0, cfg.valueSize)
	for k := 0; k < cfg.keys; k++ {
		if err := ht.Put(w.names[k], fillValue(val, k, 0, cfg.valueSize)); err != nil {
			return err
		}
	}
	buf := make([]byte, 0, cfg.valueSize)
	return rt.measure(func() error {
		for j, kind := range ops.kinds {
			k := int(ops.keys[j])
			if kind != opGet {
				val = fillValue(val, k, m.set(k), cfg.valueSize)
				if err := ht.Put(w.names[k], val); err != nil {
					return err
				}
				continue
			}
			got, res := ht.GetAppendLockFree(buf[:0], w.names[k])
			hit := res == sds.LookupHit
			if res != sds.LookupHit && res != sds.LookupMiss {
				var err error
				if got, hit, err = ht.GetAppend(buf[:0], w.names[k]); err != nil {
					return err
				}
			}
			if !m.check(k, m.get(k), got, hit) {
				return fmt.Errorf("GET %s disagrees with the model", w.names[k])
			}
			buf = got
		}
		return nil
	})
}

// rungAlloc replays the ops as bare allocator calls on one context: a SET
// allocates the new value and frees the old, a GET copies the value out.
func (w *serveWorkload) rungAlloc(rt *rungTiming, ops schedule) error {
	cfg := w.cfg
	sma := core.New(core.Config{Machine: pages.NewPool(0)})
	ctx := sma.Register("ladder-alloc", 0, nil)
	defer ctx.Close()
	m := newVersionModel(cfg.keys, cfg.valueSize)
	refs := make([]alloc.Ref, cfg.keys)
	val := make([]byte, 0, cfg.valueSize)
	for k := range refs {
		ref, err := ctx.AllocData(fillValue(val, k, 0, cfg.valueSize))
		if err != nil {
			return err
		}
		refs[k] = ref
	}
	buf := make([]byte, cfg.valueSize)
	return rt.measure(func() error {
		for j, kind := range ops.kinds {
			k := int(ops.keys[j])
			if kind != opGet {
				ref, err := ctx.AllocData(fillValue(val, k, m.set(k), cfg.valueSize))
				if err != nil {
					return err
				}
				if err := ctx.Free(refs[k]); err != nil {
					return err
				}
				refs[k] = ref
				continue
			}
			if err := ctx.Read(refs[k], buf, 0); err != nil {
				return err
			}
			if !bytes.Equal(buf, fillValue(val, k, m.get(k), cfg.valueSize)) {
				return fmt.Errorf("read of key %d disagrees with the model", k)
			}
		}
		return nil
	})
}
