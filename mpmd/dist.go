package mpmd

import (
	"fmt"
	"reflect"

	"repro/internal/coll"
	"repro/internal/rmigen"
)

// Dist is a typed distributed array over a team: the generalization of
// Split-C's spread arrays (splitc.SpreadF64) beyond float64 and beyond the
// SPMD runtime — usable from CC++/typed-v2 programs on either backend, with
// a choice of layout. Elements live in per-member local parts; remote
// accesses are RMIs to the owner's collective mailbox object, so they pay
// the ordinary modelled RMI costs, and split-phase accessors return typed
// futures.

// Layout selects how Dist elements map to team ranks.
type Layout int

const (
	// LayoutBlock gives rank r the contiguous elements
	// [r*ceil(n/p), (r+1)*ceil(n/p)).
	LayoutBlock Layout = iota
	// LayoutCyclic gives rank r elements r, r+p, r+2p, … — Split-C's spread
	// layout.
	LayoutCyclic
)

// String names the layout.
func (l Layout) String() string {
	switch l {
	case LayoutBlock:
		return "block"
	case LayoutCyclic:
		return "cyclic"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// Dist is a typed distributed array of n elements of T spread over a team.
// Create it at setup time with NewDist; access it from member threads once
// the program runs.
type Dist[T any] struct {
	tm     *Team
	id     string
	n      int
	layout Layout
	codec  *rmigen.Codec
	parts  [][]T
}

// NewDist allocates a distributed array of n elements of T over the team's
// nodes in the given layout. Setup-time only (like NewObject): it installs
// the owner-side accessors into every member node's mailbox object. T must
// be a marshallable RMI value type.
func NewDist[T any](tm *Team, n int, layout Layout) (*Dist[T], error) {
	if tm == nil || tm.tm == nil {
		return nil, fmt.Errorf("NewDist on a nil Team")
	}
	c := tm.tm.Comm()
	if c.Runtime().Started() {
		return nil, fmt.Errorf("NewDist after Run has started: distributed arrays are placed at setup time")
	}
	if n < 0 {
		return nil, fmt.Errorf("NewDist: negative length %d", n)
	}
	if layout != LayoutBlock && layout != LayoutCyclic {
		return nil, fmt.Errorf("NewDist: unknown layout %v", layout)
	}
	codec, err := codecOf[T]("NewDist")
	if err != nil {
		return nil, err
	}
	d := &Dist[T]{tm: tm, id: c.NextDistID(), n: n, layout: layout, codec: codec}
	p := tm.Size()
	d.parts = make([][]T, p)
	for r := 0; r < p; r++ {
		d.parts[r] = make([]T, d.partLen(r))
		part := d.parts[r]
		c.InstallDist(tm.Node(r), d.id, coll.DistHooks{
			Get: func(off int, dst []byte) []byte { return d.codec.AppendTo(reflect.ValueOf(&part[off]).Elem(), dst) },
			Put: func(off int, b []byte) { part[off] = decode[T](d.codec, b) },
		})
	}
	return d, nil
}

// Len returns the global element count.
func (d *Dist[T]) Len() int { return d.n }

// Team returns the team the array is spread over.
func (d *Dist[T]) Team() *Team { return d.tm }

// Layout returns the element-to-rank mapping.
func (d *Dist[T]) Layout() Layout { return d.layout }

// blockSize returns the per-rank block length of the block layout.
func (d *Dist[T]) blockSize() int {
	p := d.tm.Size()
	return (d.n + p - 1) / p
}

// owner maps a global index to (owning rank, owner-local offset).
func (d *Dist[T]) owner(i int) (rank, off int) {
	if d.layout == LayoutCyclic {
		p := d.tm.Size()
		return i % p, i / p
	}
	b := d.blockSize()
	return i / b, i % b
}

// partLen returns how many elements rank r owns.
func (d *Dist[T]) partLen(r int) int {
	p := d.tm.Size()
	if d.layout == LayoutCyclic {
		if d.n <= r {
			return 0
		}
		return (d.n - r + p - 1) / p
	}
	b := d.blockSize()
	sz := d.n - r*b
	if sz < 0 {
		return 0
	}
	if sz > b {
		return b
	}
	return sz
}

// globalIndex maps (rank, owner-local offset) back to the global index.
func (d *Dist[T]) globalIndex(r, off int) int {
	if d.layout == LayoutCyclic {
		return r + off*d.tm.Size()
	}
	return r*d.blockSize() + off
}

// OwnerRank returns the team rank owning global index i.
func (d *Dist[T]) OwnerRank(i int) int { r, _ := d.owner(i); return r }

// OwnerNode returns the node ID owning global index i.
func (d *Dist[T]) OwnerNode(i int) int { return d.tm.Node(d.OwnerRank(i)) }

// check validates one access: member thread, running program, index range.
func (d *Dist[T]) check(t *Thread, op string, i int) (rank, off int, local bool, err error) {
	if d == nil {
		return 0, 0, false, fmt.Errorf("%s on a nil Dist", op)
	}
	if _, err := d.tm.check(t, op); err != nil {
		return 0, 0, false, err
	}
	if i < 0 || i >= d.n {
		return 0, 0, false, fmt.Errorf("%s: index %d out of range [0,%d)", op, i, d.n)
	}
	rank, off = d.owner(i)
	return rank, off, d.tm.Node(rank) == t.Node().ID, nil
}

// Get reads element i: a direct dereference when the caller owns it, a
// synchronous RMI to the owner otherwise.
func (d *Dist[T]) Get(t *Thread, i int) (T, error) {
	rank, off, local, err := d.check(t, "Dist.Get", i)
	if err != nil {
		var zero T
		return zero, err
	}
	if local {
		coll.LocalDeref(t)
		return d.parts[rank][off], nil
	}
	c := d.tm.tm.Comm()
	return decode[T](d.codec, c.DistGet(t, d.tm.Node(rank), d.id, off)), nil
}

// Put writes element i, returning once the owner has applied it.
func (d *Dist[T]) Put(t *Thread, i int, v T) error {
	rank, off, local, err := d.check(t, "Dist.Put", i)
	if err != nil {
		return err
	}
	if local {
		coll.LocalDeref(t)
		d.parts[rank][off] = v
		return nil
	}
	d.tm.tm.Comm().DistPut(t, d.tm.Node(rank), d.id, off, encode(d.codec, v))
	return nil
}

// GetAsync starts a split-phase read of element i; the returned future
// yields the typed value (Split-C's get, with a typed handle instead of a
// sync counter).
func (d *Dist[T]) GetAsync(t *Thread, i int) (*Future[T], error) {
	rank, off, _, err := d.check(t, "Dist.GetAsync", i)
	if err != nil {
		return nil, err
	}
	fu := &Future[T]{codec: d.codec}
	fu.f = d.tm.tm.Comm().DistGetAsync(t, d.tm.Node(rank), d.id, off, &fu.ret)
	return fu, nil
}

// PutAsync starts a split-phase write of element i; the returned future
// completes when the owner's acknowledgement lands.
func (d *Dist[T]) PutAsync(t *Thread, i int, v T) (*Future[Void], error) {
	rank, off, _, err := d.check(t, "Dist.PutAsync", i)
	if err != nil {
		return nil, err
	}
	f := d.tm.tm.Comm().DistPutAsync(t, d.tm.Node(rank), d.id, off, encode(d.codec, v))
	return &Future[Void]{f: f}, nil
}

// Local returns the calling member's own part (indexed by owner-local
// offset; see ForEachLocal for global indices). The slice is live storage.
func (d *Dist[T]) Local(t *Thread) ([]T, error) {
	if d == nil {
		return nil, fmt.Errorf("Dist.Local on a nil Dist")
	}
	r, err := d.tm.check(t, "Dist.Local")
	if err != nil {
		return nil, err
	}
	return d.parts[r], nil
}

// ForEachLocal visits every element the calling member owns, in global
// index order, passing a live pointer — the owner-computes idiom
// (Split-C's &A[MYPROC] loops) for any layout.
func (d *Dist[T]) ForEachLocal(t *Thread, fn func(i int, v *T)) error {
	if d == nil {
		return fmt.Errorf("Dist.ForEachLocal on a nil Dist")
	}
	r, err := d.tm.check(t, "Dist.ForEachLocal")
	if err != nil {
		return err
	}
	part := d.parts[r]
	for off := range part {
		fn(d.globalIndex(r, off), &part[off])
	}
	return nil
}
