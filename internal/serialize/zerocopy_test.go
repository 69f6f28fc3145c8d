package serialize

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"xingtian/internal/env"
	"xingtian/internal/message"
	"xingtian/internal/rollout"
)

// frameObs is a small frame-stack observation filled from rng.
func frameObs(rng *rand.Rand, vec bool) env.Obs {
	f := make([]byte, 6*5*2)
	rng.Read(f)
	o := env.Obs{Frame: f, FrameH: 6, FrameW: 5, FrameN: 2}
	if vec {
		o.Vec = []float32{rng.Float32(), rng.Float32()}
	}
	return o
}

// TestSizeHintRolloutUpperBound: SizeHint must bound every rollout's
// encoding so a buffer of that capacity never regrows mid-marshal; Marshal
// keeping the capacity it started with proves no regrowth happened.
func TestSizeHintRolloutUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := map[string]func(i int) rollout.Step{
		"frame-only": func(int) rollout.Step { return rollout.Step{Obs: frameObs(rng, false)} },
		"vec-only":   func(int) rollout.Step { return rollout.Step{Obs: env.Obs{Vec: []float32{1, 2, 3}}} },
		"both":       func(int) rollout.Step { return rollout.Step{Obs: frameObs(rng, true)} },
		"none":       func(int) rollout.Step { return rollout.Step{} },
		"empty-vec":  func(int) rollout.Step { return rollout.Step{Obs: env.Obs{Vec: []float32{}}} },
		"logits": func(int) rollout.Step {
			return rollout.Step{Obs: frameObs(rng, false), Logits: []float32{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}}
		},
		"action-vec": func(int) rollout.Step {
			return rollout.Step{Obs: env.Obs{Vec: []float32{1}}, ActionVec: []float32{-1, 1}}
		},
		"mixed": func(i int) rollout.Step {
			s := rollout.Step{Done: i%3 == 0, Logits: []float32{1, 2}}
			switch i % 4 {
			case 0:
				s.Obs = frameObs(rng, false)
			case 1:
				s.Obs = frameObs(rng, true)
			case 2:
				s.Obs = env.Obs{Vec: []float32{1, 2}}
			}
			return s
		},
	}
	boots := map[string]env.Obs{
		"no-bootstrap":    {},
		"frame-bootstrap": frameObs(rng, false),
		"both-bootstrap":  frameObs(rng, true),
	}
	for name, step := range cases {
		for bname, boot := range boots {
			for _, steps := range []int{0, 1, 100} {
				b := &rollout.Batch{ExplorerID: 2, WeightsVersion: 9, BootstrapObs: boot}
				for i := 0; i < steps; i++ {
					b.Steps = append(b.Steps, step(i))
				}
				hint := SizeHint(b)
				out, err := Marshal(b)
				if err != nil {
					t.Fatalf("%s/%s/%d: Marshal: %v", name, bname, steps, err)
				}
				if len(out) > hint {
					t.Fatalf("%s/%s/%d: encoded %d bytes > SizeHint %d", name, bname, steps, len(out), hint)
				}
				if cap(out) != hint {
					t.Fatalf("%s/%s/%d: marshal buffer regrew from %d to %d", name, bname, steps, hint, cap(out))
				}
			}
		}
	}
}

// TestFrameMatchesPackMarshal: the broker's in-place framing must produce
// exactly the bytes of the two-step Marshal+Pack path, raw and LZ4 alike.
func TestFrameMatchesPackMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	compressible := &rollout.Batch{}
	for i := 0; i < 100; i++ {
		compressible.Steps = append(compressible.Steps, rollout.Step{
			Obs: env.Obs{Frame: make([]byte, 84*84*2), FrameH: 84, FrameW: 84, FrameN: 2},
		})
	}
	bodies := map[string]any{
		"small-rollout":        sampleBatch(rng, 10, true),
		"large-incompressible": sampleBatch(rng, 100, true),
		"large-compressible":   compressible,
		"weights":              &message.WeightsPayload{Version: 3, Data: make([]float32, 300_000)},
		"dummy":                &message.DummyPayload{Data: bytes.Repeat([]byte{7}, 64)},
	}
	comps := map[string]Compressor{
		"off":     {},
		"default": NewCompressor(),
		"low":     {Threshold: 1024},
	}
	sawLZ4, sawRaw := false, false
	for bname, body := range bodies {
		raw, err := Marshal(body)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", bname, err)
		}
		for cname, c := range comps {
			want, wantComp := c.Pack(raw)
			got, gotComp, err := c.Frame(body)
			if err != nil {
				t.Fatalf("%s/%s: Frame: %v", bname, cname, err)
			}
			if gotComp != wantComp || !bytes.Equal(got, want) {
				t.Fatalf("%s/%s: Frame = (%d bytes, lz4=%v), Pack(Marshal) = (%d bytes, lz4=%v)",
					bname, cname, len(got), gotComp, len(want), wantComp)
			}
			sawLZ4 = sawLZ4 || gotComp
			sawRaw = sawRaw || !gotComp
		}
	}
	if !sawLZ4 || !sawRaw {
		t.Fatalf("cases exercised lz4=%v raw=%v; want both", sawLZ4, sawRaw)
	}
	if _, _, err := NewCompressor().Frame(struct{}{}); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("Frame(unsupported) = %v, want ErrBadPayload", err)
	}
}

// TestUnmarshalFramesAreCappedViews: decoded frames alias the payload (no
// copy), and each is capped at its own length so an append by a consumer
// reallocates instead of clobbering the next field.
func TestUnmarshalFramesAreCappedViews(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	in := sampleBatch(rng, 3, true)
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	out := got.(*rollout.Batch)
	if !reflect.DeepEqual(in, out) {
		t.Fatal("round trip mismatch")
	}
	for i := range out.Steps {
		if f := out.Steps[i].Obs.Frame; cap(f) != len(f) {
			t.Fatalf("step %d: frame cap %d != len %d", i, cap(f), len(f))
		}
	}
	before := append([]byte(nil), data...)
	_ = append(out.Steps[0].Obs.Frame, 0xEE)
	if !bytes.Equal(before, data) {
		t.Fatal("appending to a decoded frame overwrote the payload")
	}
	// The first frame's bytes follow the header, the obs tag, its three
	// dimensions and its length prefix; a write there shows through the
	// decoded frame only if it was not copied.
	off := rolloutHeaderSize + 1 + 12 + 4
	data[off] ^= 0xFF
	if out.Steps[0].Obs.Frame[0] != data[off] {
		t.Fatal("decoded frame is a copy, not a view of the payload")
	}
}

// TestUnmarshalRolloutRejectsNonCanonical: every rollout the decoder accepts
// re-encodes to the bytes it came from, so bytes the encoder never writes
// are errors rather than silently normalized.
func TestUnmarshalRolloutRejectsNonCanonical(t *testing.T) {
	b := &rollout.Batch{Steps: []rollout.Step{{Done: true}}}
	good, err := Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	doneAt := rolloutHeaderSize + 1 + 4 + 4 + 4 // obs tag, action, action-vec len, reward
	if good[doneAt] != 1 {
		t.Fatalf("done flag not at offset %d", doneAt)
	}
	mutate := func(f func([]byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	cases := map[string][]byte{
		"trailing byte":   mutate(func(d []byte) []byte { return append(d, 0) }),
		"done flag 2":     mutate(func(d []byte) []byte { d[doneAt] = 2; return d }),
		"obs tag 9":       mutate(func(d []byte) []byte { d[rolloutHeaderSize] = 9; return d }),
		"step count high": mutate(func(d []byte) []byte { d[13] = 2; return d }),
	}
	for name, data := range cases {
		if _, err := Unmarshal(data); !errors.Is(err, ErrBadPayload) {
			t.Fatalf("%s: Unmarshal = %v, want ErrBadPayload", name, err)
		}
	}

	empty := &rollout.Batch{Steps: []rollout.Step{{Obs: env.Obs{Vec: []float32{}}}}}
	data, err := Marshal(empty)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(empty, got) {
		t.Fatalf("empty observation vector decoded as %+v", got.(*rollout.Batch).Steps[0].Obs)
	}
}

// FuzzUnmarshal: the codec parses bytes that arrive from TCP. Whatever the
// input, Unmarshal must not panic; a rollout it accepts must re-encode to
// exactly the input; and every decoded frame must be capped at its length so
// a consumer's append cannot clobber the neighbouring frame.
func FuzzUnmarshal(f *testing.F) {
	rng := rand.New(rand.NewSource(14))
	seeds := []any{
		sampleBatch(rng, 3, true),
		sampleBatch(rng, 3, false),
		&rollout.Batch{Steps: []rollout.Step{{Obs: frameObs(rng, true), ActionVec: []float32{1}}}, BootstrapObs: frameObs(rng, false)},
		&rollout.Batch{},
		&message.WeightsPayload{Version: 1, Data: []float32{1, 2}},
		&message.StatsPayload{Node: "explorer-1", Episodes: 2},
		&message.ControlPayload{Kind: message.ControlSetHyperparams, Hyperparams: map[string]float64{"lr": 0.1}, Peer: "p"},
		&message.DummyPayload{Data: []byte("dummy")},
	}
	for _, body := range seeds {
		raw, err := Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte{tagRollout, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := Unmarshal(data)
		if err != nil {
			return
		}
		b, ok := body.(*rollout.Batch)
		if !ok {
			return
		}
		again, err := Marshal(b)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-marshal differs: %d bytes in, %d out", len(data), len(again))
		}
		obs := []env.Obs{b.BootstrapObs}
		for i := range b.Steps {
			obs = append(obs, b.Steps[i].Obs)
		}
		for i, o := range obs {
			if cap(o.Frame) != len(o.Frame) {
				t.Fatalf("obs %d: frame cap %d != len %d", i, cap(o.Frame), len(o.Frame))
			}
		}
	})
}
