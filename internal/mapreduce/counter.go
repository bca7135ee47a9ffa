package mapreduce

import (
	"sync"
	"sync/atomic"

	"efind/internal/sketch"
)

// Counter is a dense handle to a named task counter. Runtime layers that
// bump a counter on every record or lookup resolve its name once — when a
// plan is compiled or an index client is built — and then call
// TaskContext.Add with the handle, which indexes a per-task slot array
// instead of concatenating and hashing a name. Names come back only when
// the engine folds a finished task's slots into TaskStats.
type Counter int32

// SketchID is a dense handle to a named FM sketch (see Counter).
type SketchID int32

// CounterFor returns the handle of the named counter, interning the name
// on first use. Safe for concurrent use; the same name always yields the
// same handle for the life of the process.
func CounterFor(name string) Counter { return Counter(interned.intern(name)) }

// SketchFor returns the handle of the named sketch (see CounterFor).
func SketchFor(name string) SketchID { return SketchID(interned.intern(name)) }

// interned is the process-wide intern table behind Counter and SketchID
// handles. It is append-only: a name, once interned, keeps its id. Reads
// (the by-name TaskContext calls) take no lock — they load an immutable
// snapshot — while interning a new name copies the snapshot under a
// mutex. Runtime names are interned when a plan is compiled, so writes
// are rare, and the table holds only the distinct counter and sketch
// names the process uses; a task's slot array is sized to it.
var interned internTable

type internTable struct {
	mu   sync.Mutex
	snap atomic.Pointer[internSnap]
}

type internSnap struct {
	ids   map[string]int32
	names []string
}

func (t *internTable) lookup(name string) (int32, bool) {
	s := t.snap.Load()
	if s == nil {
		return 0, false
	}
	id, ok := s.ids[name]
	return id, ok
}

func (t *internTable) intern(name string) int32 {
	if id, ok := t.lookup(name); ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.snap.Load()
	next := &internSnap{ids: map[string]int32{}}
	if old != nil {
		if id, ok := old.ids[name]; ok {
			return id
		}
		next.ids = make(map[string]int32, len(old.ids)+1)
		for k, v := range old.ids {
			next.ids[k] = v
		}
		// Readers of the old snapshot never index past its length, so
		// the new snapshot may share (and append to) its backing array.
		next.names = old.names
	}
	id := int32(len(next.names))
	next.ids[name] = id
	next.names = append(next.names, name)
	t.snap.Store(next)
	return id
}

// all returns every interned name, indexed by id.
func (t *internTable) all() []string {
	if s := t.snap.Load(); s != nil {
		return s.names
	}
	return nil
}

// size returns the number of interned names.
func (t *internTable) size() int { return len(t.all()) }

// counterSlot is one task-local counter. set distinguishes a counter
// touched only by zero deltas from one never touched: both read 0, but
// only the former appears in TaskStats.Counters.
type counterSlot struct {
	n   int64
	set bool
}

// Add adds delta to the counter behind h — the hot-path form of Inc. It
// allocates only when the task touches its first counter or a handle
// interned after that.
func (c *TaskContext) Add(h Counter, delta int64) {
	if int(h) < len(c.slots) && c.slots[h].set {
		c.slots[h].n += delta
		return
	}
	c.touch(h, delta)
}

// touch is Add's first-use path: grow the slot array to cover h and
// record h in first-touch order. The touched list is sized with the slot
// array, so appending to it never reallocates.
func (c *TaskContext) touch(h Counter, delta int64) {
	if int(h) >= len(c.slots) {
		n := interned.size()
		if n <= int(h) {
			n = int(h) + 1
		}
		slots := make([]counterSlot, n)
		copy(slots, c.slots)
		c.slots = slots
		touched := make([]Counter, len(c.touched), n)
		copy(touched, c.touched)
		c.touched = touched
	}
	s := &c.slots[h]
	if !s.set {
		s.set = true
		c.touched = append(c.touched, h)
	}
	s.n += delta
}

// SketchAt returns the task's sketch behind h, creating it with the given
// width on first use — the hot-path form of Sketch.
func (c *TaskContext) SketchAt(h SketchID, width int) *sketch.FM {
	if int(h) < len(c.sketches) {
		if s := c.sketches[h]; s != nil {
			return s
		}
	}
	return c.newSketch(h, width)
}

func (c *TaskContext) newSketch(h SketchID, width int) *sketch.FM {
	if int(h) >= len(c.sketches) {
		n := interned.size()
		if n <= int(h) {
			n = int(h) + 1
		}
		sk := make([]*sketch.FM, n)
		copy(sk, c.sketches)
		c.sketches = sk
	}
	s := sketch.New(width)
	c.sketches[h] = s
	return s
}

// Inc adds delta to the named counter (the paper's globally visible
// MapReduce counters, §4.2). It is Add behind a name lookup, for user
// functions; runtime hot paths hold handles instead.
func (c *TaskContext) Inc(name string, delta int64) { c.Add(CounterFor(name), delta) }

// Counter returns the current task-local value of the named counter.
func (c *TaskContext) Counter(name string) int64 {
	id, ok := interned.lookup(name)
	if !ok || int(id) >= len(c.slots) {
		return 0
	}
	return c.slots[id].n
}

// Sketch returns the task's named FM sketch, creating it on first use with
// the given width.
func (c *TaskContext) Sketch(name string, width int) *sketch.FM {
	return c.SketchAt(SketchFor(name), width)
}
