// Weight-delta codec: sparse/quantized parameter updates for the
// communication-efficient weight plane (PAPERS.md: Chen et al.,
// "Communication-Efficient Policy Gradient Methods"). The learner encodes a
// delta against the reconstruction a destination already holds; both sides
// apply the identical float32 arithmetic, so chained deltas never drift.
package serialize

import (
	"encoding/binary"
	"fmt"
	"math"

	"xingtian/internal/lz4"
	"xingtian/internal/message"
)

// QuantBits values supported by EncodeDelta.
const (
	QuantNone = 0 // exact float32 deltas
	QuantInt8 = 8 // int8 steps with a shared scale
)

// deltaLZ4MinBytes is the smallest entry block worth running through the
// LZ4 block codec: below this the token overhead dominates.
const deltaLZ4MinBytes = 128

// EncodeDelta builds a delta payload that transforms base (at baseVersion)
// into an approximation of cur (at version). With quantBits == QuantInt8 the
// per-parameter change is quantized to int8 steps of a shared scale;
// parameters whose change rounds to zero are dropped, which is where the
// sparsity comes from. The encoder picks sparse or dense layout by encoded
// size. base and cur must have equal length.
func EncodeDelta(base, cur []float32, baseVersion, version int64, quantBits int) (*message.WeightsDeltaPayload, error) {
	if len(base) != len(cur) {
		return nil, fmt.Errorf("serialize: delta over mismatched vectors (%d vs %d): %w", len(base), len(cur), ErrBadPayload)
	}
	d := &message.WeightsDeltaPayload{
		Version:     version,
		BaseVersion: baseVersion,
		NumParams:   int32(len(cur)),
	}
	switch quantBits {
	case QuantInt8:
		maxAbs := float32(0)
		for i := range cur {
			if a := abs32(cur[i] - base[i]); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs == 0 {
			return d, nil // nothing changed: pure version bump
		}
		scale := maxAbs / 127
		d.Scale = scale
		idx := make([]uint32, 0, len(cur)/8)
		q := make([]int8, 0, len(cur)/8)
		for i := range cur {
			step := int32(math.RoundToEven(float64((cur[i] - base[i]) / scale)))
			if step == 0 {
				continue
			}
			if step > 127 {
				step = 127
			} else if step < -127 {
				step = -127
			}
			idx = append(idx, uint32(i))
			q = append(q, int8(step))
		}
		if len(q) == 0 {
			d.Scale = 0
			return d, nil
		}
		// Dense layout wins once more than half the entries are non-zero
		// (sparse pays ≥1 varint byte per 1-byte entry).
		if len(q) > len(cur)/2 {
			dq := make([]int8, len(cur))
			for j, i := range idx {
				dq[i] = q[j]
			}
			d.Q = dq
		} else {
			d.Indices = idx
			d.Q = q
		}
		return d, nil
	case QuantNone:
		idx := make([]uint32, 0, len(cur)/8)
		vals := make([]float32, 0, len(cur)/8)
		for i := range cur {
			if cur[i] != base[i] {
				idx = append(idx, uint32(i))
				vals = append(vals, cur[i]-base[i])
			}
		}
		if len(vals) == 0 {
			return d, nil
		}
		// Sparse entries cost ~5 bytes vs 4 dense; dense wins above 4/5.
		if len(vals) > len(cur)*4/5 {
			dv := make([]float32, len(cur))
			for j, i := range idx {
				dv[i] = vals[j]
			}
			d.Values = dv
		} else {
			d.Indices = idx
			d.Values = vals
		}
		return d, nil
	default:
		return nil, fmt.Errorf("serialize: unsupported quantBits %d: %w", quantBits, ErrBadPayload)
	}
}

// ApplyDelta returns base advanced by d. It never mutates base; callers that
// chain deltas keep the returned slice as the next base. Version bookkeeping
// (d.BaseVersion matching the caller's current version) is the caller's
// responsibility — this function validates shape only.
func ApplyDelta(base []float32, d *message.WeightsDeltaPayload) ([]float32, error) {
	if int(d.NumParams) != len(base) {
		return nil, fmt.Errorf("serialize: delta for %d params applied to %d: %w", d.NumParams, len(base), ErrBadPayload)
	}
	out := append([]float32(nil), base...)
	switch {
	case d.Entries() == 0:
		// Pure version bump.
	case d.Indices != nil:
		if len(d.Indices) != d.Entries() {
			return nil, fmt.Errorf("serialize: %d indices for %d entries: %w", len(d.Indices), d.Entries(), ErrBadPayload)
		}
		if d.Scale > 0 {
			for j, i := range d.Indices {
				if int(i) >= len(out) {
					return nil, fmt.Errorf("serialize: delta index %d out of range: %w", i, ErrBadPayload)
				}
				out[i] += d.Scale * float32(d.Q[j])
			}
		} else {
			for j, i := range d.Indices {
				if int(i) >= len(out) {
					return nil, fmt.Errorf("serialize: delta index %d out of range: %w", i, ErrBadPayload)
				}
				out[i] += d.Values[j]
			}
		}
	default: // dense
		if d.Entries() != len(out) {
			return nil, fmt.Errorf("serialize: dense delta has %d entries for %d params: %w", d.Entries(), len(out), ErrBadPayload)
		}
		if d.Scale > 0 {
			for i, q := range d.Q {
				out[i] += d.Scale * float32(q)
			}
		} else {
			for i, v := range d.Values {
				out[i] += v
			}
		}
	}
	return out, nil
}

// RelDeltaNorm returns ‖cur−base‖₂ / max(‖base‖₂, ε): the relative movement
// of the parameter vector, used by the planner's adaptive skip threshold.
func RelDeltaNorm(base, cur []float32) float64 {
	if len(base) != len(cur) {
		return math.Inf(1)
	}
	var num, den float64
	for i := range cur {
		dv := float64(cur[i]) - float64(base[i])
		num += dv * dv
		den += float64(base[i]) * float64(base[i])
	}
	if den < 1e-12 {
		den = 1e-12
	}
	return math.Sqrt(num / den)
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// Wire encoding -----------------------------------------------------------------

// Delta flag bits.
const (
	deltaFlagSparse byte = 1 << 0
	deltaFlagLZ4    byte = 1 << 1
	deltaFlagQuant  byte = 1 << 2
)

func appendWeightsDelta(out []byte, d *message.WeightsDeltaPayload) []byte {
	out = append(out, tagWeightsDelta)
	out = putU64(out, uint64(d.Version))
	out = putU64(out, uint64(d.BaseVersion))
	out = putU32(out, uint32(d.NumParams))
	out = putF32(out, d.Scale)

	var flags byte
	if d.Indices != nil {
		flags |= deltaFlagSparse
	}
	if d.Scale > 0 {
		flags |= deltaFlagQuant
	}

	// Entry block: count, varint index gaps (sparse), then entry bytes.
	block := make([]byte, 0, 4+5*d.Entries())
	block = putU32(block, uint32(d.Entries()))
	if d.Indices != nil {
		prev := uint64(0)
		for j, i := range d.Indices {
			v := uint64(i)
			if j == 0 {
				block = binary.AppendUvarint(block, v)
			} else {
				block = binary.AppendUvarint(block, v-prev)
			}
			prev = v
		}
	}
	if d.Scale > 0 {
		for _, q := range d.Q {
			block = append(block, byte(q))
		}
	} else {
		for _, v := range d.Values {
			block = putF32(block, v)
		}
	}

	// LZ4 the block when it shrinks — the fixed block codec, applied inside
	// the payload because deltas rarely reach the outer compressor threshold.
	if len(block) >= deltaLZ4MinBytes {
		comp := make([]byte, 0, lz4.CompressBound(len(block)))
		comp = lz4.Compress(comp, block)
		if len(comp) < len(block) {
			out = append(out, flags|deltaFlagLZ4)
			out = putU32(out, uint32(len(block)))
			return putBytes(out, comp)
		}
	}
	out = append(out, flags)
	return putBytes(out, block)
}

func unmarshalWeightsDelta(data []byte) (*message.WeightsDeltaPayload, error) {
	r := &reader{data: data}
	d := &message.WeightsDeltaPayload{
		Version:     int64(r.u64()),
		BaseVersion: int64(r.u64()),
		NumParams:   int32(r.u32()),
		Scale:       r.f32(),
	}
	flags := r.byte()
	var block []byte
	if flags&deltaFlagLZ4 != 0 {
		rawLen := int(r.u32())
		comp := r.view()
		if r.err != nil {
			return nil, r.err
		}
		if rawLen < 0 || rawLen > 4+9*int(uint32(d.NumParams)) {
			return nil, fmt.Errorf("implausible delta block size %d: %w", rawLen, ErrBadPayload)
		}
		block = make([]byte, rawLen)
		if _, err := lz4.Decompress(block, comp); err != nil {
			return nil, fmt.Errorf("delta block: %w", err)
		}
	} else {
		block = r.view()
		if r.err != nil {
			return nil, r.err
		}
	}

	br := &reader{data: block}
	entries := int(br.u32())
	if br.err != nil {
		return nil, br.err
	}
	if entries < 0 || entries > int(uint32(d.NumParams)) || d.NumParams < 0 {
		return nil, fmt.Errorf("delta entry count %d for %d params: %w", entries, d.NumParams, ErrBadPayload)
	}
	if flags&deltaFlagSparse != 0 {
		d.Indices = make([]uint32, entries)
		pos := uint64(0)
		for j := 0; j < entries; j++ {
			gap, n := binary.Uvarint(block[br.pos:])
			if n <= 0 {
				return nil, fmt.Errorf("truncated delta index stream: %w", ErrBadPayload)
			}
			br.pos += n
			pos += gap
			if pos >= uint64(uint32(d.NumParams)) {
				return nil, fmt.Errorf("delta index %d out of range: %w", pos, ErrBadPayload)
			}
			if j > 0 && gap == 0 {
				return nil, fmt.Errorf("non-increasing delta index stream: %w", ErrBadPayload)
			}
			d.Indices[j] = uint32(pos)
		}
	} else if entries != 0 && entries != int(d.NumParams) {
		return nil, fmt.Errorf("dense delta has %d entries for %d params: %w", entries, d.NumParams, ErrBadPayload)
	}
	if flags&deltaFlagQuant != 0 {
		if d.Scale <= 0 || math.IsNaN(float64(d.Scale)) || math.IsInf(float64(d.Scale), 0) {
			return nil, fmt.Errorf("quantized delta with scale %v: %w", d.Scale, ErrBadPayload)
		}
		if br.pos+entries > len(block) {
			return nil, fmt.Errorf("truncated delta entries: %w", ErrBadPayload)
		}
		d.Q = make([]int8, entries)
		for j := 0; j < entries; j++ {
			d.Q[j] = int8(block[br.pos+j])
		}
		br.pos += entries
	} else {
		d.Scale = 0
		if br.pos+4*entries > len(block) {
			return nil, fmt.Errorf("truncated delta entries: %w", ErrBadPayload)
		}
		if entries > 0 {
			d.Values = make([]float32, entries)
			for j := range d.Values {
				d.Values[j] = math.Float32frombits(binary.LittleEndian.Uint32(block[br.pos:]))
				br.pos += 4
			}
		}
	}
	if br.pos != len(block) {
		return nil, fmt.Errorf("delta block has %d trailing bytes: %w", len(block)-br.pos, ErrBadPayload)
	}
	// An empty sparse layout is canonicalized to the empty payload.
	if entries == 0 {
		d.Indices = nil
		d.Q = nil
		d.Values = nil
	}
	return d, nil
}
