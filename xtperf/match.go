package main

import (
	"math"
	"sync"

	"xingtian/internal/rollout"
)

// batchKey identifies a rollout batch across a serialize round trip: the
// producing explorer, the weights version it was generated under, and a
// content fingerprint.
type batchKey struct {
	explorer int32
	version  int64
	fp       uint64
}

// keyOf builds the key of a batch produced by explorer.
func keyOf(explorer int32, b *rollout.Batch) batchKey {
	return batchKey{explorer: explorer, version: b.WeightsVersion, fp: fingerprint(b)}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// fingerprint hashes a few cheap fields of a batch: its length, the first,
// middle and last steps' action, reward and feature vector, and the
// bootstrap observation. Frames are left out: the feature vector of an
// arcade observation already summarizes its frame.
func fingerprint(b *rollout.Batch) uint64 {
	h := uint64(fnvOffset)
	n := len(b.Steps)
	h = fnvMix(h, uint64(n))
	if n > 0 {
		for _, i := range [3]int{0, n / 2, n - 1} {
			s := &b.Steps[i]
			h = fnvMix(h, uint64(uint32(s.Action)))
			h = fnvMix(h, uint64(math.Float32bits(s.Reward)))
			for _, v := range s.Obs.Vec {
				h = fnvMix(h, uint64(math.Float32bits(v)))
			}
		}
	}
	for _, v := range b.BootstrapObs.Vec {
		h = fnvMix(h, uint64(math.Float32bits(v)))
	}
	return h
}

// matcher pairs each batch an agent returned with the batch an algorithm
// later receives, which is a decoded copy of it.
type matcher struct {
	mu         sync.Mutex
	pending    map[batchKey][]sent
	delivered  map[batchKey]struct{}
	unmatched  int64
	duplicates int64
}

// sent is one produced batch awaiting delivery.
type sent struct {
	at   int64 // ns on the recorder's clock
	span uint64
}

func newMatcher() *matcher {
	return &matcher{pending: make(map[batchKey][]sent), delivered: make(map[batchKey]struct{})}
}

// produced records a batch leaving an agent.
func (m *matcher) produced(k batchKey, at int64, span uint64) {
	m.mu.Lock()
	m.pending[k] = append(m.pending[k], sent{at: at, span: span})
	m.mu.Unlock()
}

// received pairs a batch reaching an algorithm with its production record.
// A batch delivered again after its pair was taken (an at-least-once
// redispatch) counts as a duplicate; one never produced counts as
// unmatched. ok is false in both cases.
func (m *matcher) received(k batchKey) (s sent, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.pending[k]
	if len(q) == 0 {
		if _, seen := m.delivered[k]; seen {
			m.duplicates++
		} else {
			m.unmatched++
		}
		return sent{}, false
	}
	s = q[0]
	if len(q) == 1 {
		delete(m.pending, k)
		m.delivered[k] = struct{}{}
	} else {
		m.pending[k] = q[1:]
	}
	return s, true
}

// counts reports unmatched and duplicate deliveries and batches still in
// flight.
func (m *matcher) counts() (unmatched, duplicates, inFlight int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, q := range m.pending {
		inFlight += int64(len(q))
	}
	return m.unmatched, m.duplicates, inFlight
}
