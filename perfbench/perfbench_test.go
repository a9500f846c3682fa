package main

import (
	"testing"
)

// fakeStore is an in-memory store with one plantable fault, for showing
// that each model catches the fault it exists for.
type fakeStore struct {
	vals  map[int][]byte
	order []int          // keys by last write, oldest first
	disk  map[int][]byte // demoted values (spill model)
	stale map[int][]byte // previous value of each key
	fault string         // "", "newest-first", "stale", "resurrect"
}

func newFakeStore(fault string) *fakeStore {
	return &fakeStore{vals: map[int][]byte{}, disk: map[int][]byte{}, stale: map[int][]byte{}, fault: fault}
}

func (f *fakeStore) set(k int, v []byte) {
	if old, ok := f.vals[k]; ok {
		f.stale[k] = old
	}
	f.vals[k] = append([]byte(nil), v...)
	f.remove(k)
	f.order = append(f.order, k)
}

func (f *fakeStore) remove(k int) {
	for i, o := range f.order {
		if o == k {
			f.order = append(f.order[:i], f.order[i+1:]...)
			return
		}
	}
}

func (f *fakeStore) get(k int) ([]byte, bool) {
	if f.fault == "stale" {
		if v, ok := f.stale[k]; ok {
			return v, true
		}
	}
	if v, ok := f.vals[k]; ok {
		return v, true
	}
	v, ok := f.disk[k]
	return v, ok
}

// evict revokes n entries: the oldest, or with the newest-first fault
// the newest. Revoked values move to disk.
func (f *fakeStore) evict(n int) {
	for ; n > 0 && len(f.order) > 0; n-- {
		i := 0
		if f.fault == "newest-first" {
			i = len(f.order) - 1
		}
		k := f.order[i]
		f.order = append(f.order[:i], f.order[i+1:]...)
		f.disk[k] = f.vals[k]
		delete(f.vals, k)
	}
}

// del deletes k; with the resurrect fault its demoted copy survives.
func (f *fakeStore) del(k int) bool {
	_, inMem := f.vals[k]
	_, onDisk := f.disk[k]
	delete(f.vals, k)
	f.remove(k)
	if f.fault != "resurrect" {
		delete(f.disk, k)
	}
	return inMem || onDisk
}

// orderFailures runs the pressure order check against a fake store:
// write keys oldest-first, revoke a third of them, read all back.
func orderFailures(fault string) int {
	const keys = 300
	f := newFakeStore(fault)
	m := newOrderModel(keys)
	val := make([]byte, 0, 8<<10)
	for k := 0; k < keys; k++ {
		f.set(k, fillValue(val, k, m.version[k]+1, valueSize(k)))
		m.write(k)
	}
	// Rewrite some old keys so last-write order differs from first-write.
	for k := 0; k < keys; k += 7 {
		f.set(k, fillValue(val, k, m.version[k]+1, valueSize(k)))
		m.write(k)
	}
	f.evict(keys / 3)
	m.evict(keys / 3)
	failed := 0
	for k := 0; k < keys; k++ {
		got, hit := f.get(k)
		if _, inMem := f.vals[k]; !inMem {
			hit = false // no spill tier in the pressure workload
		}
		if !m.checkGet(k, got, hit) || (hit && !m.valueOK(k, got)) {
			failed++
		}
	}
	return failed
}

func TestOrderModelCatchesNewerKeyEvictedFirst(t *testing.T) {
	if n := orderFailures(""); n != 0 {
		t.Fatalf("correct oldest-first store: %d reads disagree with the model", n)
	}
	if n := orderFailures("newest-first"); n == 0 {
		t.Fatal("a store that evicts newer keys first passed the order model")
	}
	if n := orderFailures("stale"); n == 0 {
		t.Fatal("a store returning stale versions passed the order model")
	}
}

func TestVersionModelCatchesStaleVersion(t *testing.T) {
	for _, fault := range []string{"", "stale"} {
		const keys = 50
		f := newFakeStore(fault)
		m := newVersionModel(keys, 256)
		val := make([]byte, 0, 256)
		for k := 0; k < keys; k++ {
			f.set(k, fillValue(val, k, 0, 256))
		}
		failed := 0
		for k := 0; k < keys; k++ {
			v := m.set(k)
			f.set(k, fillValue(val, k, v, 256))
			got, hit := f.get(k)
			if !m.check(k, m.get(k), got, hit) {
				failed++
			}
		}
		if fault == "" && failed != 0 {
			t.Fatalf("correct store: %d reads disagree with the version model", failed)
		}
		if fault == "stale" && failed == 0 {
			t.Fatal("a store returning the previous version passed the version model")
		}
	}
}

func TestSpillModelCatchesResurrectedKey(t *testing.T) {
	for _, fault := range []string{"", "resurrect"} {
		const keys = 40
		f := newFakeStore(fault)
		m := newSpillModel(keys)
		val := make([]byte, 0, 8<<10)
		for k := 0; k < keys; k++ {
			f.set(k, fillValue(val, k, m.version[k]+1, valueSize(k)))
			m.write(k)
		}
		f.evict(keys / 2) // demote the older half to disk
		failed := 0
		for k := 0; k < keys; k += 3 {
			existed := f.del(k)
			if !m.checkDel(k, existed) {
				failed++
			}
			m.del(k)
		}
		for k := 0; k < keys; k++ {
			got, hit := f.get(k)
			if !m.checkGet(k, got, hit) {
				failed++
			}
		}
		if fault == "" && failed != 0 {
			t.Fatalf("correct store: %d operations disagree with the spill model", failed)
		}
		if fault == "resurrect" && failed == 0 {
			t.Fatal("a store that brings deleted keys back from disk passed the spill model")
		}
	}
}

func smallOptions(t *testing.T, workload string) *benchOptions {
	return &benchOptions{workload: workload, seed: 3, seconds: 0, workDir: t.TempDir()}
}

func smallPressure(withSpill bool) pressureCfg {
	c := pressureConfig(withSpill)
	c.warmup, c.ops = 1000, 8000
	return c
}

// checkDeclared fails the test for a per-layer metric that layerDefs
// does not declare, which a traced run would silently leave out.
func checkDeclared(t *testing.T, layer map[string]metric) {
	t.Helper()
	for name := range layer {
		if _, ok := layerUnits[name]; !ok {
			t.Errorf("per-layer metric %q is not declared in layerDefs", name)
		}
	}
}

func TestShortServeRun(t *testing.T) {
	cfg := defaultServeConfig()
	cfg.keys, cfg.warmup, cfg.ops, cfg.ladderOps = 4000, 320, 3200, 1600
	w := newServeWorkload(cfg, 3)
	o := smallOptions(t, "serve")
	for _, traced := range []bool{false, true} {
		r, err := w.round(o, traced, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 || r.attempted != int64(cfg.warmup+cfg.ops) {
			t.Fatalf("traced=%v: failed %d of %d", traced, r.failed, r.attempted)
		}
		if traced && r.layer["ladder.alloc_ns_per_op"].Value <= 0 {
			t.Fatalf("traced round has no ladder: %v", r.layer)
		}
		checkDeclared(t, r.layer)
	}
}

func TestShortPressureAndSpillRuns(t *testing.T) {
	for _, withSpill := range []bool{false, true} {
		cfg := smallPressure(withSpill)
		w := newPressureWorkload(cfg, 3)
		r, err := w.round(smallOptions(t, "pressure"), true, 0)
		if err != nil {
			t.Fatalf("spill=%v: %v", withSpill, err)
		}
		checkDeclared(t, r.layer)
		if r.layer["core.demands"].Value == 0 || r.layer["smd.reclaim_cycles"].Value == 0 {
			t.Fatalf("spill=%v: the round never reclaimed: %v", withSpill, r.layer)
		}
		if withSpill && (r.failed != 0 || r.layer["spill.demotes"].Value == 0) {
			t.Fatalf("spill round: failed %d, demotes %v", r.failed, r.layer["spill.demotes"].Value)
		}
	}
}

// With one shard the store revokes oldest-first store-wide, so the model
// must agree with every read: the probe and the main stream fail nothing.
func TestPressureOneShardFailsNothing(t *testing.T) {
	cfg := smallPressure(false)
	cfg.shards = 1
	w := newPressureWorkload(cfg, 3)
	r, err := w.round(smallOptions(t, "pressure"), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("one shard: %d of %d operations failed", r.failed, r.attempted)
	}
	if d := r.layer["model.order_disagreements"].Value; d != 0 {
		t.Fatalf("one shard: %v main-stream reads disagree with the oldest-first model", d)
	}
	if r.layer["sds.entries_reclaimed"].Value == 0 {
		t.Fatal("one shard: nothing was revoked, so the check proved nothing")
	}
}

// Rounds at a fixed seed repeat their reclaim counts exactly.
func TestReclaimCountsRepeat(t *testing.T) {
	cfg := smallPressure(false)
	var first map[string]metric
	for i := 0; i < 2; i++ {
		r, err := newPressureWorkload(cfg, 5).round(smallOptions(t, "pressure"), true, 0)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = r.layer
			continue
		}
		for _, name := range []string{"core.demands", "smd.reclaim_cycles", "sds.entries_reclaimed"} {
			if r.layer[name] != first[name] {
				t.Fatalf("%s: %v then %v", name, first[name].Value, r.layer[name].Value)
			}
		}
	}
}
