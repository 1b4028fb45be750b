// Fixture for the poolown analyzer: sync.Pool ownership violations in
// the style of the serving layer's request-buffer pools.
package poolown

import "sync"

type frame struct {
	buf    []byte
	groups []int
}

var pool = sync.Pool{New: func() any { return new(frame) }}

type server struct {
	pool sync.Pool
}

// Bad: reading a frame after returning it to the pool.
func useAfterPut() int {
	f := pool.Get().(*frame)
	pool.Put(f)
	return len(f.buf) // want `pool value f used after Put`
}

// Bad: the same through a pool field, with the use in a call argument.
func (s *server) decodeAfterPut(decode func([]byte) error) error {
	f := s.pool.Get().(*frame)
	s.pool.Put(f)
	return decode(f.buf) // want `pool value f used after Put`
}

// Bad: double Put hands the same buffer to two goroutines.
func doublePut() {
	f := pool.Get().(*frame)
	pool.Put(f)
	pool.Put(f) // want `pool value f is Put again`
}

// Bad: a deferred Put still fires after the explicit one.
func deferredThenPut() int {
	f := pool.Get().(*frame)
	defer pool.Put(f)
	n := len(f.buf)
	pool.Put(f) // want `pool value f is Put again \(deferred Put`
	return n
}

// Bad: a second Put after a branch that already may have Put.
func maybeDoublePut(cond bool) {
	f := pool.Get().(*frame)
	if cond {
		pool.Put(f)
	}
	pool.Put(f) // want `pool value f is Put again`
}

// Bad: a use after a switch case that may have Put.
func maybeUseAfterPut(kind int) int {
	f := pool.Get().(*frame)
	switch kind {
	case 0:
		pool.Put(f)
	}
	return len(f.groups) // want `pool value f used after Put`
}
