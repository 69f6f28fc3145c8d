// Buffer pooling for the serialization plane.
//
// Marshal is on the per-message hot path of every explorer and learner
// thread; allocating a fresh buffer per message makes the garbage collector
// a hidden serialization stage. The pool below recycles grown buffers so a
// steady-state sender marshals with zero allocations.
//
// # Ownership rules (checked by xt-lint refbalance)
//
// A buffer obtained from GetBuf or MarshalPooled is OWNED by the caller and
// must be returned with FreeBuf on every path once the caller is done with
// its contents, exactly like an object-store reference must be Released.
// Hand-offs to a new owner are declared with `//lint:owns <reason>`. After
// FreeBuf the buffer may be reused by any other goroutine: never retain or
// read a slice that was freed. APIs that keep bytes beyond the call (e.g.
// objectstore.Put, broker.InjectRemote) must be given their own buffer,
// never a pooled one. A pooled buffer passed to Unmarshal must not be freed
// while the decoded body is in use: rollout frames are views into it.
package serialize

import "sync"

// minBufCap is the starting capacity handed out for fresh pool buffers.
const minBufCap = 4 << 10

// maxPooledCap bounds what FreeBuf keeps: buffers grown beyond this are
// dropped so one giant message doesn't pin megabytes in the pool forever.
const maxPooledCap = 8 << 20

// bufPool recycles marshal/framing buffers. Stored as *[]byte so Put/Get
// avoid re-boxing the slice header on every cycle.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, minBufCap)
		return &b
	},
}

// GetBuf returns an empty (length-zero) buffer with capacity at least
// capHint. The caller owns it and must pass it to FreeBuf when done.
func GetBuf(capHint int) []byte {
	bp := bufPool.Get().(*[]byte)
	b := (*bp)[:0]
	if cap(b) >= capHint {
		return b
	}
	// Too small for this message: recycle the pooled one untouched and
	// allocate at the requested size so the eventual FreeBuf keeps the
	// grown buffer instead.
	bufPool.Put(bp)
	return make([]byte, 0, capHint)
}

// FreeBuf returns a buffer obtained from GetBuf or MarshalPooled to the
// pool. The buffer must not be used after the call. Freeing nil or a
// buffer that out-grew the pooling bound is a no-op.
func FreeBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledCap {
		return
	}
	b = b[:0]
	bufPool.Put(&b)
}
