package sketch

import "testing"

func TestParseLayout(t *testing.T) {
	l, err := ParseLayout("4x16x1024")
	if err != nil {
		t.Fatalf("ParseLayout: %v", err)
	}
	if l.Rows != 4 || l.Width != 16 || l.Domain != 1024 {
		t.Fatalf("ParseLayout = %+v, want {4 16 1024}", l)
	}
	if _, err := ParseLayout(" 2 x 8 x 32 "); err != nil {
		t.Fatalf("ParseLayout with spaces: %v", err)
	}
	for _, bad := range []string{"", "4x16", "4x16x1024x2", "ax16x32", "0x16x32", "3x1x32", "3x16x0"} {
		if _, err := ParseLayout(bad); err == nil {
			t.Errorf("ParseLayout(%q) accepted", bad)
		}
	}
}

// Raw FNV-1a reduced mod a power-of-two Width put items differing by a
// multiple of Width into the same cell of every row (the final multiply
// maps a ±2^b input difference to a ±2^b·prime hash difference, congruent
// mod 2^b), so the count-min minimum could never separate item from
// item+Width. The finalizer must break that congruence: for every item,
// some row must separate it from its Width-offset aliases.
func TestLayoutCellNoPowerOfTwoAliasing(t *testing.T) {
	for _, width := range []int{8, 16, 32} {
		l := Layout{Rows: 4, Width: width, Domain: 4 * width}
		for item := 0; item < l.Domain-width; item++ {
			separated := false
			for r := 0; r < l.Rows; r++ {
				if l.Cell(r, item) != l.Cell(r, item+width) {
					separated = true
					break
				}
			}
			if !separated {
				t.Errorf("width %d: items %d and %d share a cell in every row", width, item, item+width)
			}
		}
	}
}

func TestLayoutCellDeterministicAndBounded(t *testing.T) {
	l := Layout{Rows: 3, Width: 8, Domain: 64}
	for item := 0; item < l.Domain; item++ {
		for r := 0; r < l.Rows; r++ {
			c := l.Cell(r, item)
			if c < 0 || c >= l.Width {
				t.Fatalf("Cell(%d, %d) = %d out of [0, %d)", r, item, c, l.Width)
			}
			if again := l.Cell(r, item); again != c {
				t.Fatalf("Cell(%d, %d) flapped: %d then %d", r, item, c, again)
			}
		}
	}
}
