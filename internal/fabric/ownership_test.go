package fabric

import (
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"xingtian/internal/env"
	"xingtian/internal/message"
	"xingtian/internal/rollout"
	"xingtian/internal/serialize"
)

// TestGridAdoptedBodiesSurviveLaterFrames: the receiving node hands each
// frame's buffer to the store without copying, and the learner decodes the
// frames as views of it, so a read buffer must never be recycled for a later
// frame. Several distinct multi-MB rollouts cross m1→m0 and all sit in m0's
// store before the first Recv; each must still match what was sent.
func TestGridAdoptedBodiesSurviveLaterFrames(t *testing.T) {
	// One P and no GC keep sync.Pool on a single per-P cache that is never
	// cleared, so a buffer the read loop wrongly pooled is the one its next
	// read (or the scribble below) gets back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g, err := NewGrid(2, GridOptions{})
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	defer g.Stop()
	learner, err := g.Register(0, "learner")
	if err != nil {
		t.Fatalf("Register learner: %v", err)
	}
	explorer, err := g.Register(1, "explorer-0")
	if err != nil {
		t.Fatalf("Register explorer: %v", err)
	}

	const rollouts = 6
	rng := rand.New(rand.NewSource(21))
	sent := make([]*rollout.Batch, rollouts)
	for i := range sent {
		b := &rollout.Batch{ExplorerID: int32(i), WeightsVersion: int64(i)}
		for s := 0; s < 100; s++ { // 100 × 28 KB frame stacks ≈ 2.8 MB
			f := make([]byte, 84*84*4)
			rng.Read(f)
			b.Steps = append(b.Steps, rollout.Step{
				Obs:    env.Obs{Frame: f, FrameH: 84, FrameW: 84, FrameN: 4},
				Action: int32(s),
			})
		}
		sent[i] = b
		if err := explorer.Send(message.New(message.TypeRollout, "explorer-0", []string{"learner"}, b)); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for learner.Pending() < rollouts {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d rollouts arrived", learner.Pending(), rollouts)
		}
		time.Sleep(time.Millisecond)
	}
	// Scribble over whatever the serialize pool now holds: a read buffer
	// recycled there gets overwritten even if no later frame reused it.
	for i := 0; i < 2*rollouts; i++ {
		buf := serialize.GetBuf(3 << 20)
		buf = buf[:cap(buf)]
		for j := range buf {
			buf[j] = 0xA5
		}
	}
	for i, want := range sent {
		got, err := learner.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if !reflect.DeepEqual(got.Body, want) {
			t.Fatalf("rollout %d changed after later frames were read", i)
		}
	}
}
