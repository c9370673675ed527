package join

import "fmt"

// Components is a batch of joined vectors in compact form: each distinct
// left and right row's local sub-vector once, and per vector only the two
// row indexes and its aggregated values. Vector n is the plain
// concatenation
//
//	Lefts[Pairs[n][0]] ++ Rights[Pairs[n][1]] ++ Aggs[n]
//
// — the layout Combine writes — so recombining applies no aggregator and
// is bit-exact. The two tables are the keys Algorithm 3's target sets are
// built on (τ(u) depends only on u's local sub-vector), and a joined
// answer shares few distinct rows among many pairs, so this is the form
// the distributed scheme ships candidates in (DESIGN.md §13).
//
// LeftIDs and RightIDs, when present, name each table row's tuple index
// (parallel to Lefts and Rights); a verification batch, which only votes
// on vectors, carries none.
type Components struct {
	LeftIDs  []int
	Lefts    [][]float64
	RightIDs []int
	Rights   [][]float64
	Pairs    [][2]int
	Aggs     [][]float64
}

// Split builds the compact form of an answer whose vectors have l1 left
// and l2 right local attributes; everything past them is aggregated.
// Tables are in first-appearance order and alias the pairs' vectors. The
// slices are never nil, so an empty answer encodes as empty lists.
func Split(sky []Pair, l1, l2 int) Components {
	c := Components{
		LeftIDs: []int{}, Lefts: [][]float64{},
		RightIDs: []int{}, Rights: [][]float64{},
		Pairs: make([][2]int, len(sky)), Aggs: make([][]float64, len(sky)),
	}
	lefts, rights := make(map[int]int), make(map[int]int)
	for n, p := range sky {
		li, ok := lefts[p.Left]
		if !ok {
			li = len(c.Lefts)
			lefts[p.Left] = li
			c.LeftIDs = append(c.LeftIDs, p.Left)
			c.Lefts = append(c.Lefts, p.Attrs[:l1:l1])
		}
		ri, ok := rights[p.Right]
		if !ok {
			ri = len(c.Rights)
			rights[p.Right] = ri
			c.RightIDs = append(c.RightIDs, p.Right)
			c.Rights = append(c.Rights, p.Attrs[l1:l1+l2:l1+l2])
		}
		c.Pairs[n] = [2]int{li, ri}
		c.Aggs[n] = p.Attrs[l1+l2:]
	}
	return c
}

// Len is the number of vectors.
func (c *Components) Len() int { return len(c.Pairs) }

// Floats counts the attribute values the form carries: both tables plus
// the aggregated values. Indexes and ids are not attribute values.
func (c *Components) Floats() int {
	n := 0
	for _, t := range [][][]float64{c.Lefts, c.Rights, c.Aggs} {
		for _, row := range t {
			n += len(row)
		}
	}
	return n
}

// Check reports the first way c is not a well-formed batch of vectors with
// l1 left, l2 right and a aggregated attributes: a table row or an
// aggregate row of the wrong width, an index outside its table, ids not
// parallel to their table, or Pairs and Aggs of different lengths. Every
// other method assumes c passed it.
func (c *Components) Check(l1, l2, a int) error {
	if len(c.Aggs) != len(c.Pairs) {
		return fmt.Errorf("%d pairs but %d aggregate rows", len(c.Pairs), len(c.Aggs))
	}
	if c.LeftIDs != nil && len(c.LeftIDs) != len(c.Lefts) {
		return fmt.Errorf("%d left ids for %d left rows", len(c.LeftIDs), len(c.Lefts))
	}
	if c.RightIDs != nil && len(c.RightIDs) != len(c.Rights) {
		return fmt.Errorf("%d right ids for %d right rows", len(c.RightIDs), len(c.Rights))
	}
	for _, t := range []struct {
		name  string
		rows  [][]float64
		width int
	}{{"left", c.Lefts, l1}, {"right", c.Rights, l2}, {"aggregate", c.Aggs, a}} {
		for i, row := range t.rows {
			if len(row) != t.width {
				return fmt.Errorf("%s row %d has %d attributes, want %d", t.name, i, len(row), t.width)
			}
		}
	}
	for n, p := range c.Pairs {
		if p[0] < 0 || p[0] >= len(c.Lefts) || p[1] < 0 || p[1] >= len(c.Rights) {
			return fmt.Errorf("pair %d = %v indexes outside %d left and %d right rows", n, p, len(c.Lefts), len(c.Rights))
		}
	}
	return nil
}

// Width is the joined width of c's vectors (0 when there are none).
func (c *Components) Width() int {
	if len(c.Pairs) == 0 {
		return 0
	}
	return len(c.Lefts[0]) + len(c.Rights[0]) + len(c.Aggs[0])
}

// AppendVector appends vector n's attributes to dst.
func (c *Components) AppendVector(dst []float64, n int) []float64 {
	p := c.Pairs[n]
	dst = append(dst, c.Lefts[p[0]]...)
	dst = append(dst, c.Rights[p[1]]...)
	return append(dst, c.Aggs[n]...)
}

// Vectors recombines every vector into one flat arena.
func (c *Components) Vectors() [][]float64 {
	w := c.Width()
	arena := make([]float64, 0, c.Len()*w)
	out := make([][]float64, c.Len())
	for n := range out {
		arena = c.AppendVector(arena, n)
		out[n] = arena[n*w : (n+1)*w : (n+1)*w]
	}
	return out
}
