package broker

import (
	"bytes"
	"testing"
	"time"

	"xingtian/internal/message"
	"xingtian/internal/netsim"
	"xingtian/internal/serialize"
)

// TestStopAuditsAfterInflightRecv: a receiver that has popped its header
// but is still decoding when Stop runs holds a reference no queue accounts
// for. The leak audit must wait for that receiver's release instead of
// reporting the reference as leaked. The receive-side plane delay parks the
// receiver inside materialize for ~200ms, which Stop lands in.
func TestStopAuditsAfterInflightRecv(t *testing.T) {
	const bodyBytes = 64 << 10
	// Unpack charges bodyBytes×(PackNsPerKB/8)/1024 ns: 200ms here. The
	// body is injected pre-framed, so the send-side charge never applies.
	b := New(Config{Compressor: serialize.Compressor{PackNsPerKB: 25_000_000}})
	p, err := b.Register("rx")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := serialize.Marshal(&message.DummyPayload{Data: make([]byte, bodyBytes)})
	if err != nil {
		t.Fatal(err)
	}
	framed, _ := serialize.Compressor{}.Pack(raw)
	h := &message.Header{ID: 1, Type: message.TypeDummy, Src: "peer", Dst: []string{"rx"}}
	if err := b.InjectRemote(h, framed); err != nil {
		t.Fatal(err)
	}

	recvErr := make(chan error, 1)
	go func() {
		_, err := p.Recv()
		recvErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for p.Pending() > 0 { // popped: the receiver now sleeps inside materialize
		if time.Now().After(deadline) {
			t.Fatal("receiver never popped its header")
		}
		time.Sleep(time.Millisecond)
	}
	b.Stop()
	if err := <-recvErr; err != nil {
		t.Fatalf("in-flight Recv failed: %v", err)
	}
	if m := b.Metrics(); m.LeakedAtStop != 0 {
		t.Fatalf("LeakedAtStop = %d: Stop audited before the in-flight receiver released", m.LeakedAtStop)
	}
	if _, err := p.Recv(); err == nil {
		t.Fatal("Recv after Stop succeeded")
	}
}

// TestClusterForwardCopiesBody: the simulated wire must hand the destination
// broker its own copy of the frame. InjectRemote adopts what it is given,
// so without the copy two machines' stores would share one body.
func TestClusterForwardCopiesBody(t *testing.T) {
	c := NewCluster(netsim.New(netsim.Config{}))
	defer c.Stop()
	dst, err := c.AddBroker(0, serialize.Compressor{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddBroker(1, serialize.Compressor{}); err != nil {
		t.Fatal(err)
	}
	p, err := c.Register(0, "rx")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := serialize.Marshal(&message.DummyPayload{Data: []byte("on the wire")})
	if err != nil {
		t.Fatal(err)
	}
	framed, _ := serialize.Compressor{}.Pack(raw)
	want := append([]byte(nil), framed...)
	h := &message.Header{ID: 1, Type: message.TypeDummy, Src: "peer", Dst: []string{"rx"}}
	if err := c.Forward(1, 0, h, framed); err != nil {
		t.Fatal(err)
	}
	for i := range framed {
		framed[i] = 0 // the sender's body must not be the receiver's
	}
	nh, err := p.idQueue.Get()
	if err != nil {
		t.Fatal(err)
	}
	got, err := dst.Store().Get(nh.ObjectID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("destination store body aliases the forwarded frame")
	}
	dst.release(nh.ObjectID)
}
