package core

import (
	"math"
	"sync"
	"sync/atomic"
)

// Spine is a sliding table from non-negative transaction ids to *T,
// read without a lock. It is the one transaction table of the striped
// path: engine.Striped keeps its timestamp entries in one, and the
// sched adapter its per-transaction runtime state.
//
// Ids are grouped into chunks of SpineChunkSize slots; chunk number n
// holds ids n<<SpineChunkBits up to the next chunk. Chunks live in a
// power-of-two ring of chunk pointers indexed by n modulo the ring
// size, and each chunk carries its own number as a tag, so a lookup
// checks the tag instead of trusting the position. Storage therefore
// follows the live id span, not the largest id ever issued:
//
//   - every chunk counts its occupied slots (plus the slot operations
//     in flight on it, which pin its number);
//   - a chunk whose count drops to zero below the newest chunk is
//     retired to a free list by a CAS of the count to a sentinel, so a
//     concurrent publish cannot land in it; a new chunk number takes a
//     chunk from that list before allocating one;
//   - sliding past retired chunks publishes nothing and allocates
//     nothing; the ring is copied, under the spine's one mutex, only
//     when the live span outgrows it;
//   - id 0 (the virtual transaction T0) has a slot of its own outside
//     the ring, so it never pins the span.
//
// Slot updates are CASes on an installed chunk and take no mutex; the
// mutex is taken only to install a chunk, retire one or regrow the
// ring, and nothing is acquired under it, so it is a leaf in any lock
// order.
//
// The hazard that comes with recycling: a lookup may read a slot of a
// chunk that was retired and reused for another id range between the
// tag check and the load. Load re-checks the tag after reading the
// slot, which leaves an ABA window of two recycles within one lookup;
// callers that act on the result must re-check the element's own
// identity after locking it. CompareAndSwap has no such window: it pins
// the chunk's number for the duration of the swap.
//
// The zero value is an empty spine, ready to use.
type Spine[T any] struct {
	zero atomic.Pointer[T]
	ring atomic.Pointer[spineRing[T]]
	top  atomic.Int64 // highest chunk number installed so far

	mu   sync.Mutex       // installs, retirements and ring growth
	free []*SpineChunk[T] // retired chunks, under mu
}

// The chunk geometry: SpineChunkSize ids per chunk.
const (
	SpineChunkBits = 8
	SpineChunkSize = 1 << SpineChunkBits
	spineSlotMask  = SpineChunkSize - 1

	// spineRetired is the count of a retired chunk: far enough below
	// zero that no number of in-flight pin attempts brings it back.
	spineRetired = math.MinInt64 / 2
	// spineFreeMax caps the free list; chunks retired beyond it are
	// left to the garbage collector.
	spineFreeMax = 64
	spineRingMin = 4
)

// SpineChunk is one fixed block of SpineChunkSize slots.
type SpineChunk[T any] struct {
	num   atomic.Int64 // chunk number; -1 while on the free list
	live  atomic.Int64 // occupied slots + pins; spineRetired when retired
	slots [SpineChunkSize]atomic.Pointer[T]
}

// spineRing is one published directory: chunk n sits at n&mask.
// Entries change in place under the spine's mutex; a grown ring is a
// fresh copy.
type spineRing[T any] struct {
	mask   int64
	chunks []atomic.Pointer[SpineChunk[T]]
}

func (r *spineRing[T]) at(num int64) *SpineChunk[T] { return r.chunks[num&r.mask].Load() }

func spineNum(id int) int64 { return int64(id >> SpineChunkBits) }

// Load returns the element published for id, or nil. It takes no lock
// and allocates nothing; see the type comment for the identity
// re-check its callers owe.
func (s *Spine[T]) Load(id int) *T {
	if id <= 0 {
		if id == 0 {
			return s.zero.Load()
		}
		return nil
	}
	r := s.ring.Load()
	if r == nil {
		return nil
	}
	num := spineNum(id)
	c := r.at(num)
	if c == nil || c.num.Load() != num {
		return nil
	}
	p := c.slots[id&spineSlotMask].Load()
	if c.num.Load() != num {
		return nil
	}
	return p
}

// CompareAndSwap sets id's slot to new if it holds old, reporting
// whether it did. Publishing (old nil) into a chunk that is not
// installed installs it first; that is the only case that takes the
// mutex. Clearing the last occupied slot of a chunk below the newest
// retires the chunk. It panics on a negative id.
func (s *Spine[T]) CompareAndSwap(id int, old, new *T) bool {
	if id <= 0 {
		if id < 0 {
			panic("core: negative spine id")
		}
		return s.zero.CompareAndSwap(old, new)
	}
	num := spineNum(id)
	c := s.pinned(num)
	if c == nil {
		if old != nil {
			return false // no chunk, so the slot is empty
		}
		c = s.install(num)
	}
	if !c.slots[id&spineSlotMask].CompareAndSwap(old, new) {
		s.release(c, 1)
		return false
	}
	switch {
	case old == nil && new != nil:
		// The pin becomes the new occupant's count.
	case old != nil && new == nil:
		s.release(c, 2)
	default:
		s.release(c, 1)
	}
	return true
}

// pinned returns num's installed chunk with its count raised by one,
// which keeps it from being retired (and so keeps its number) until
// the matching release; nil when num has no installed chunk.
func (s *Spine[T]) pinned(num int64) *SpineChunk[T] {
	r := s.ring.Load()
	if r == nil {
		return nil
	}
	c := r.at(num)
	if c == nil || c.num.Load() != num {
		return nil
	}
	for {
		n := c.live.Load()
		if n < 0 {
			return nil // retired since the ring was read
		}
		if c.live.CompareAndSwap(n, n+1) {
			break
		}
	}
	if c.num.Load() == num {
		return c
	}
	// Retired and reused for another range between the two checks.
	s.release(c, 1)
	return nil
}

// release drops k from c's count and retires c when that empties a
// chunk below the newest one.
func (s *Spine[T]) release(c *SpineChunk[T], k int64) {
	if c.live.Add(-k) != 0 {
		return
	}
	if num := c.num.Load(); num >= 0 && num < s.top.Load() {
		s.mu.Lock()
		s.retireLocked(c, num)
		s.mu.Unlock()
	}
}

// retireLocked moves c, installed as chunk num, to the free list if it
// is still empty (mu held). The sentinel CAS is what a concurrent pin
// loses against.
func (s *Spine[T]) retireLocked(c *SpineChunk[T], num int64) {
	if c.num.Load() != num || !c.live.CompareAndSwap(0, spineRetired) {
		return
	}
	r := s.ring.Load()
	r.chunks[num&r.mask].CompareAndSwap(c, nil)
	c.num.Store(-1)
	if len(s.free) < spineFreeMax {
		s.free = append(s.free, c)
	}
}

// install returns chunk num pinned, installing it (from the free list
// when one is there) if no other goroutine did first. Advancing the
// newest chunk retires the previous newest if it emptied while it was
// the newest, the one case release cannot see.
func (s *Spine[T]) install(num int64) *SpineChunk[T] {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.ring.Load()
	if r != nil {
		if c := r.at(num); c != nil && c.num.Load() == num {
			c.live.Add(1) // an installed chunk retires only under mu
			return c
		}
	}
	r = s.fit(r, num)
	var c *SpineChunk[T]
	if n := len(s.free); n > 0 {
		c = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		c = new(SpineChunk[T])
	}
	// Number before count: a stale pin that gets in once the count is
	// non-negative must already see the new number.
	c.num.Store(num)
	c.live.Store(1)
	r.chunks[num&r.mask].Store(c)
	if prev := s.top.Load(); num > prev {
		s.top.Store(num)
		if p := r.at(prev); p != nil {
			s.retireLocked(p, prev)
		}
	}
	return c
}

// fit returns a ring in which num's position is free, publishing a
// larger copy of r when another chunk occupies it (mu held).
func (s *Spine[T]) fit(r *spineRing[T], num int64) *spineRing[T] {
	size := int64(spineRingMin)
	if r != nil {
		if r.at(num) == nil {
			return r
		}
		size = 2 * int64(len(r.chunks))
	}
	for ; ; size *= 2 {
		g := &spineRing[T]{mask: size - 1, chunks: make([]atomic.Pointer[SpineChunk[T]], size)}
		if g.fill(r, num) {
			s.ring.Store(g)
			return g
		}
	}
}

// fill copies r's chunks into g, reporting false when two of them, or
// one of them and num, share a position.
func (g *spineRing[T]) fill(r *spineRing[T], num int64) bool {
	if r == nil {
		return true
	}
	for i := range r.chunks {
		c := r.chunks[i].Load()
		if c == nil {
			continue
		}
		n := c.num.Load()
		if n&g.mask == num&g.mask || g.at(n) != nil {
			return false
		}
		g.chunks[n&g.mask].Store(c)
	}
	return true
}

// Len returns the number of occupied slots, id 0 included. Slot
// operations in flight count too, so the figure is exact only when
// the spine is quiescent.
func (s *Spine[T]) Len() int {
	n := 0
	if s.zero.Load() != nil {
		n++
	}
	if r := s.ring.Load(); r != nil {
		for i := range r.chunks {
			if c := r.chunks[i].Load(); c != nil {
				n += int(max(c.live.Load(), 0))
			}
		}
	}
	return n
}

// Range calls fn for every occupied slot, id 0 first. Concurrent
// updates may or may not be seen, and an element may be handed over
// under an id whose chunk was recycled meanwhile; fn re-checks
// identity as Load's callers do.
func (s *Spine[T]) Range(fn func(id int, p *T)) {
	if p := s.zero.Load(); p != nil {
		fn(0, p)
	}
	r := s.ring.Load()
	if r == nil {
		return
	}
	for i := range r.chunks {
		c := r.chunks[i].Load()
		if c == nil {
			continue
		}
		num := c.num.Load()
		if num < 0 {
			continue
		}
		for lo := range c.slots {
			if p := c.slots[lo].Load(); p != nil {
				fn(int(num)<<SpineChunkBits|lo, p)
			}
		}
	}
}

// Chunks returns the number of chunks installed in the ring and the
// ring's size (tests and diagnostics).
func (s *Spine[T]) Chunks() (installed, ring int) {
	r := s.ring.Load()
	if r == nil {
		return 0, 0
	}
	for i := range r.chunks {
		if r.chunks[i].Load() != nil {
			installed++
		}
	}
	return installed, len(r.chunks)
}
