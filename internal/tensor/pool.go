package tensor

import "sync"

// scratchPool is the shared arena for kernel workspaces (im2col columns,
// per-image weight-gradient partials, GEMM intermediates). Buffers are
// handed out per parallel chunk and returned immediately after, so at
// steady state the hot training loop performs no heap allocation for
// scratch: the pool converges on one buffer per concurrent worker of each
// size class actually in use.
var scratchPool = sync.Pool{New: func() any { s := make([]float64, 0); return &s }}

// getScratch returns a float64 slice of length n whose contents are
// undefined. Callers that need zeros must clear it (or fully overwrite it,
// as Im2Col does). Return the pointer with putScratch when done.
func getScratch(n int) *[]float64 {
	p := scratchPool.Get().(*[]float64)
	if cap(*p) < n {
		s := make([]float64, n)
		*p = s
	}
	*p = (*p)[:n]
	return p
}

// putScratch returns a buffer obtained from getScratch to the pool.
func putScratch(p *[]float64) { scratchPool.Put(p) }

// byteScratchPool is the byte-slice counterpart of scratchPool, used by the
// serialization paths (checkpoint spilling to flash) to stage encoded tensor
// data without allocating per spill.
var byteScratchPool = sync.Pool{New: func() any { s := make([]byte, 0); return &s }}

// GetByteScratch returns a byte slice of length n whose contents are
// undefined; callers must fully overwrite it. Return the pointer with
// PutByteScratch when done.
func GetByteScratch(n int) *[]byte {
	p := byteScratchPool.Get().(*[]byte)
	if cap(*p) < n {
		s := make([]byte, n)
		*p = s
	}
	*p = (*p)[:n]
	return p
}

// PutByteScratch returns a buffer obtained from GetByteScratch to the pool.
func PutByteScratch(p *[]byte) { byteScratchPool.Put(p) }

// zeroFloats clears a slice; the compiler lowers this loop to memclr.
func zeroFloats(s []float64) {
	for i := range s {
		s[i] = 0
	}
}
