package main

import (
	"bytes"
	"strconv"
)

// The models below predict what a correct store answers. They are kept
// by the benchmark from the operations it issued, never from the
// store's own output: the only thing read back from the program is the
// count of entries it reports revoked, which the oldest-first model
// needs to know how far to advance.

// keyName returns the canonical key string of key id k.
func keyName(k int) string { return "key:" + strconv.Itoa(k) }

// keyNames precomputes the key strings of a keyspace so the timed loops
// do not allocate them.
func keyNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = keyName(i)
	}
	return out
}

// fillValue writes the value of key k at version v into dst[:size] and
// returns it. The header names the key and version, so a value returned
// for the wrong key or a stale version never matches; the body repeats a
// short phrase, so values compress as text does.
func fillValue(dst []byte, k int, v uint32, size int) []byte {
	dst = dst[:0]
	dst = append(dst, 'k')
	dst = strconv.AppendInt(dst, int64(k), 10)
	dst = append(dst, ".v"...)
	dst = strconv.AppendUint(dst, uint64(v), 10)
	dst = append(dst, '|')
	const body = "soft memory moves to where it is needed; "
	for len(dst) < size {
		n := size - len(dst)
		if n > len(body) {
			n = len(body)
		}
		dst = append(dst, body[:n]...)
	}
	return dst[:size]
}

// versionModel records the last version written to each key; a GET must
// return exactly that version. It is the serve workload's model, where
// nothing is evicted and every key is preloaded at version 0. Replies
// of a pipelined batch are checked against the version each GET was
// sent behind, which set and get return.
type versionModel struct {
	version []uint32
	size    int
	scratch []byte
}

func newVersionModel(keys, size int) *versionModel {
	return &versionModel{version: make([]uint32, keys), size: size, scratch: make([]byte, size)}
}

// set records a SET of k and returns the version it writes.
func (m *versionModel) set(k int) uint32 {
	m.version[k]++
	return m.version[k]
}

// get returns the version a GET of k sent now must return.
func (m *versionModel) get(k int) uint32 { return m.version[k] }

// check reports whether a GET of k that expected version v and returned
// (got, hit) is right.
func (m *versionModel) check(k int, v uint32, got []byte, hit bool) bool {
	if !hit {
		return false
	}
	m.scratch = fillValue(m.scratch, k, v, m.size)
	return bytes.Equal(got, m.scratch)
}

// valueSize is the value size of key k in the pressure and spill
// workloads: every eighth key holds a value larger than a page, so
// multi-page spans are allocated and revoked alongside slot pages.
func valueSize(k int) int {
	if k%8 == 7 {
		return 6 << 10
	}
	return 512
}

// orderModel predicts the contents of a store that revokes entries
// oldest-by-last-write first, store-wide: a write moves its key to the
// newest end, and when the store reports n entries revoked the model
// drops its n oldest keys. It also remembers each key's last version.
type orderModel struct {
	prev, next []int32
	head, tail int32 // oldest and newest present key, -1 when empty
	present    []bool
	version    []uint32
	scratch    []byte
}

func newOrderModel(keys int) *orderModel {
	m := &orderModel{
		prev:    make([]int32, keys),
		next:    make([]int32, keys),
		present: make([]bool, keys),
		version: make([]uint32, keys),
		head:    -1,
		tail:    -1,
		scratch: make([]byte, 0, 8<<10),
	}
	return m
}

func (m *orderModel) unlink(k int32) {
	p, n := m.prev[k], m.next[k]
	if p >= 0 {
		m.next[p] = n
	} else {
		m.head = n
	}
	if n >= 0 {
		m.prev[n] = p
	} else {
		m.tail = p
	}
	m.present[k] = false
}

// write records a successful SET of k.
func (m *orderModel) write(k int) {
	kk := int32(k)
	if m.present[k] {
		m.unlink(kk)
	}
	m.prev[kk], m.next[kk] = m.tail, -1
	if m.tail >= 0 {
		m.next[m.tail] = kk
	} else {
		m.head = kk
	}
	m.tail = kk
	m.present[k] = true
	m.version[k]++
}

// evict drops the n oldest keys, as a store-wide oldest-first store
// revoking n entries would.
func (m *orderModel) evict(n int64) {
	for ; n > 0 && m.head >= 0; n-- {
		m.unlink(m.head)
	}
}

// checkGet reports whether a GET of k that returned (got, hit) agrees
// with the model: a hit only for a present key, carrying its last value.
func (m *orderModel) checkGet(k int, got []byte, hit bool) bool {
	if hit != m.present[k] {
		return false
	}
	if !hit {
		return true
	}
	m.scratch = fillValue(m.scratch, k, m.version[k], valueSize(k))
	return bytes.Equal(got, m.scratch)
}

// valueOK reports whether a hit on k carries the last value written. It
// holds for any correct store, whatever order it revokes in.
func (m *orderModel) valueOK(k int, got []byte) bool {
	if m.version[k] == 0 {
		return false // never written, so nothing may be returned
	}
	m.scratch = fillValue(m.scratch, k, m.version[k], valueSize(k))
	return bytes.Equal(got, m.scratch)
}

// Key states of the spill model.
const (
	keyNever uint8 = iota
	keyLive
	keyDeleted
)

// spillModel is the spill workload's model. With a disk budget above
// everything the run writes, nothing is lost legally: a written,
// undeleted key must read back with its last value, wherever it lives,
// and a deleted key must never come back.
type spillModel struct {
	state   []uint8
	version []uint32
	scratch []byte
}

func newSpillModel(keys int) *spillModel {
	return &spillModel{state: make([]uint8, keys), version: make([]uint32, keys), scratch: make([]byte, 0, 8<<10)}
}

func (m *spillModel) write(k int) {
	m.state[k] = keyLive
	m.version[k]++
}

func (m *spillModel) del(k int) {
	if m.state[k] == keyLive {
		m.state[k] = keyDeleted
	}
}

func (m *spillModel) checkGet(k int, got []byte, hit bool) bool {
	if m.state[k] != keyLive {
		return !hit
	}
	if !hit {
		return false
	}
	m.scratch = fillValue(m.scratch, k, m.version[k], valueSize(k))
	return bytes.Equal(got, m.scratch)
}

// checkDel reports whether a DEL of k that reported existed is right.
func (m *spillModel) checkDel(k int, existed bool) bool {
	return existed == (m.state[k] == keyLive)
}
