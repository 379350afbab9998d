package fabric

import "testing"

// TestTorus3DCoordsRoundTrip: rank → coords → rank is the identity on
// every rank of several torus shapes, cubic and not.
func TestTorus3DCoordsRoundTrip(t *testing.T) {
	for _, tor := range []Torus3D{
		{1, 1, 1},
		{2, 2, 2},
		{4, 4, 4},
		{3, 5, 7}, // non-cubic, all-odd
		{8, 2, 1}, // degenerate z
		{1, 6, 4}, // degenerate x
	} {
		size := tor.X * tor.Y * tor.Z
		for r := 0; r < size; r++ {
			x, y, z := tor.coords(r)
			if x < 0 || x >= tor.X || y < 0 || y >= tor.Y || z < 0 || z >= tor.Z {
				t.Errorf("%+v: coords(%d) = (%d,%d,%d) out of bounds", tor, r, x, y, z)
			}
			if back := x + y*tor.X + z*tor.X*tor.Y; back != r {
				t.Errorf("%+v: coords(%d) = (%d,%d,%d) maps back to %d", tor, r, x, y, z, back)
			}
		}
	}
}

// TestTorus3DHopsTable pins hop counts on a 4×4×4 torus, including
// wrap-around shortest paths.
func TestTorus3DHopsTable(t *testing.T) {
	tor := Torus3D{4, 4, 4}
	rank := func(x, y, z int) int { return x + 4*y + 16*z }
	cases := []struct {
		name     string
		src, dst int
		want     int
	}{
		{"self", rank(1, 2, 3), rank(1, 2, 3), 0},
		{"x-neighbor", rank(0, 0, 0), rank(1, 0, 0), 1},
		{"y-neighbor", rank(0, 0, 0), rank(0, 1, 0), 1},
		{"z-neighbor", rank(0, 0, 0), rank(0, 0, 1), 1},
		{"x-wrap", rank(0, 0, 0), rank(3, 0, 0), 1},        // 3 forward, 1 around
		{"x-half", rank(0, 0, 0), rank(2, 0, 0), 2},        // equidistant both ways
		{"diag-face", rank(0, 0, 0), rank(1, 1, 0), 2},     // manhattan sum
		{"diag-cube", rank(0, 0, 0), rank(1, 1, 1), 3},     // one per dim
		{"far-corner", rank(0, 0, 0), rank(2, 2, 2), 6},    // max distance
		{"wrap-corner", rank(0, 0, 0), rank(3, 3, 3), 3},   // all dims wrap
		{"mixed", rank(1, 0, 2), rank(3, 3, 0), 2 + 1 + 2}, // |2|,wrap 1,|2|
	}
	for _, c := range cases {
		if got := tor.Hops(c.src, c.dst); got != c.want {
			t.Errorf("%s: Hops(%d,%d) = %d, want %d", c.name, c.src, c.dst, got, c.want)
		}
	}
}

// TestTorus3DHopsSymmetric: wrap-around distance is a metric — symmetric,
// ≥1 off the diagonal, and the triangle inequality holds. Checked
// exhaustively on a non-cubic torus where x/y/z confusion would show.
func TestTorus3DHopsSymmetric(t *testing.T) {
	tor := Torus3D{3, 4, 2}
	size := tor.X * tor.Y * tor.Z
	for a := 0; a < size; a++ {
		for b := 0; b < size; b++ {
			ab, ba := tor.Hops(a, b), tor.Hops(b, a)
			if ab != ba {
				t.Errorf("Hops(%d,%d) = %d but Hops(%d,%d) = %d", a, b, ab, b, a, ba)
			}
			if a == b && ab != 0 {
				t.Errorf("Hops(%d,%d) = %d, want 0", a, a, ab)
			}
			if a != b && ab < 1 {
				t.Errorf("Hops(%d,%d) = %d, want ≥ 1", a, b, ab)
			}
			for c := 0; c < size; c++ {
				if tor.Hops(a, c) > ab+tor.Hops(b, c) {
					t.Errorf("triangle violated: Hops(%d,%d)=%d > Hops(%d,%d)+Hops(%d,%d)",
						a, c, tor.Hops(a, c), a, b, b, c)
				}
			}
		}
	}
}

// TestTorus3DSizeOne: a 1×1×1 torus has a single rank at distance 0 from
// itself, and the degenerate dimensions contribute no hops elsewhere.
func TestTorus3DSizeOne(t *testing.T) {
	if got := (Torus3D{1, 1, 1}).Hops(0, 0); got != 0 {
		t.Errorf("1x1x1 Hops(0,0) = %d, want 0", got)
	}
	// In an N×1×1 "torus" (a ring), distance is pure ring distance.
	ring := Torus3D{6, 1, 1}
	for _, c := range []struct{ src, dst, want int }{
		{0, 1, 1}, {0, 3, 3}, {0, 5, 1}, {0, 4, 2}, {2, 5, 3},
	} {
		if got := ring.Hops(c.src, c.dst); got != c.want {
			t.Errorf("ring Hops(%d,%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
	// Distinct ranks on a wrap-degenerate axis still cost ≥ 1 hop: the
	// Hops contract (fabric.Topology) demands ≥ 1 for src != dst.
	flat := Torus3D{1, 1, 4}
	if got := flat.Hops(0, 1); got < 1 {
		t.Errorf("degenerate-axis Hops(0,1) = %d, want ≥ 1", got)
	}
}

// TestTorus3DMaxDiameter: the farthest pair is ⌊X/2⌋+⌊Y/2⌋+⌊Z/2⌋ away and
// nothing exceeds it.
func TestTorus3DMaxDiameter(t *testing.T) {
	tor := Torus3D{4, 6, 3}
	want := 4/2 + 6/2 + 3/2
	size := tor.X * tor.Y * tor.Z
	max := 0
	for a := 0; a < size; a++ {
		for b := 0; b < size; b++ {
			if h := tor.Hops(a, b); h > max {
				max = h
			}
		}
	}
	if max != want {
		t.Errorf("diameter = %d, want %d", max, want)
	}
}
