package xmltree

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseDeweyRoundTrip(t *testing.T) {
	cases := []string{"1", "1.2", "1.2.3", "1.10.2", "7", ""}
	for _, s := range cases {
		d, err := ParseDewey(s)
		if err != nil {
			t.Fatalf("ParseDewey(%q): %v", s, err)
		}
		if got := d.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestParseDeweyErrors(t *testing.T) {
	for _, s := range []string{"a", "1..2", "1.x", "-1", "1.-2"} {
		if _, err := ParseDewey(s); err == nil {
			t.Errorf("ParseDewey(%q): want error", s)
		}
	}
}

func mustDewey(t *testing.T, s string) Dewey {
	t.Helper()
	d, err := ParseDewey(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeweyCompare(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"1", "1", 0},
		{"1", "1.1", -1},
		{"1.1", "1", 1},
		{"1.2", "1.10", -1}, // numeric, not lexicographic
		{"1.2.3", "1.3", -1},
		{"2", "1.9.9", 1},
	}
	for _, c := range cases {
		a, b := mustDewey(t, c.a), mustDewey(t, c.b)
		if got := a.Compare(b); got != c.want {
			t.Errorf("Compare(%s,%s)=%d want %d", c.a, c.b, got, c.want)
		}
		if got := b.Compare(a); got != -c.want {
			t.Errorf("Compare(%s,%s)=%d want %d", c.b, c.a, got, -c.want)
		}
	}
}

func TestDeweyAncestor(t *testing.T) {
	cases := []struct {
		a, b                string
		ancestor, ancOrSelf bool
	}{
		{"1", "1.2", true, true},
		{"1", "1", false, true},
		{"1.2", "1.2.3.4", true, true},
		{"1.2", "1.3", false, false},
		{"1.2.3", "1.2", false, false},
		{"", "1.2", true, true},
	}
	for _, c := range cases {
		a, b := mustDewey(t, c.a), mustDewey(t, c.b)
		if got := a.AncestorOf(b); got != c.ancestor {
			t.Errorf("AncestorOf(%q,%q)=%v want %v", c.a, c.b, got, c.ancestor)
		}
		if got := a.AncestorOrSelf(b); got != c.ancOrSelf {
			t.Errorf("AncestorOrSelf(%q,%q)=%v want %v", c.a, c.b, got, c.ancOrSelf)
		}
	}
}

func TestDeweyTruncateAndChild(t *testing.T) {
	d := mustDewey(t, "1.2.3.4")
	if got := d.Truncate(2).String(); got != "1.2" {
		t.Errorf("Truncate(2)=%s", got)
	}
	if got := d.Truncate(9).String(); got != "1.2.3.4" {
		t.Errorf("Truncate(9)=%s", got)
	}
	if got := d.Truncate(0).String(); got != "" {
		t.Errorf("Truncate(0)=%q", got)
	}
	if got := d.Child(7).String(); got != "1.2.3.4.7" {
		t.Errorf("Child(7)=%s", got)
	}
	if d.Depth() != 4 {
		t.Errorf("Depth=%d", d.Depth())
	}
}

func TestDeweyKeyRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		d := Dewey(raw)
		back := DeweyFromKey(d.Key())
		if len(raw) == 0 {
			return len(back) == 0
		}
		return reflect.DeepEqual(back, d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// AppendKey extends its buffer with exactly Key's bytes, at any depth
// (Key's stack buffer covers 16 components; deeper codes spill).
func TestDeweyAppendKeyMatchesKey(t *testing.T) {
	f := func(raw []uint32, prefix []byte) bool {
		d := Dewey(raw)
		got := d.AppendKey(append([]byte(nil), prefix...))
		return string(got) == string(prefix)+d.Key() && len(d.Key()) == 4*len(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: lexicographic order on Key() equals document order from
// Compare().
func TestDeweyKeyOrderMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randDewey := func() Dewey {
		n := 1 + rng.Intn(6)
		d := make(Dewey, n)
		for i := range d {
			d[i] = uint32(rng.Intn(300))
		}
		return d
	}
	for i := 0; i < 2000; i++ {
		a, b := randDewey(), randDewey()
		cmp := a.Compare(b)
		keyCmp := strings.Compare(a.Key(), b.Key())
		if (cmp < 0) != (keyCmp < 0) || (cmp == 0) != (keyCmp == 0) {
			t.Fatalf("order mismatch %v vs %v: Compare=%d keyCmp=%d", a, b, cmp, keyCmp)
		}
	}
}

// Property: sorting Dewey codes by Compare yields ancestors before
// descendants.
func TestDeweySortAncestorsFirst(t *testing.T) {
	ds := []Dewey{
		mustDewey(t, "1.2.3"), mustDewey(t, "1"), mustDewey(t, "1.2"),
		mustDewey(t, "1.10"), mustDewey(t, "1.2.3.1"),
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].Compare(ds[j]) < 0 })
	for i := 0; i < len(ds); i++ {
		for j := i + 1; j < len(ds); j++ {
			if ds[j].AncestorOf(ds[i]) {
				t.Fatalf("descendant %v sorted before ancestor %v", ds[i], ds[j])
			}
		}
	}
}

func TestDeweyClone(t *testing.T) {
	d := mustDewey(t, "1.2.3")
	c := d.Clone()
	c[0] = 9
	if d[0] != 1 {
		t.Error("Clone aliases original")
	}
	if Dewey(nil).Clone() != nil {
		t.Error("Clone(nil) should be nil")
	}
}
