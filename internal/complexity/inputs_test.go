package complexity

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// modelAC pairs an AC with a map-of-names model of its input set.
type modelAC struct {
	ac    AC
	model map[string]bool
}

// words copies the bits of a's input set.
func words(a AC) []uint64 { return append([]uint64{a.inputs.lo}, a.inputs.hi...) }

func union(a, b map[string]bool) map[string]bool {
	out := maps.Clone(a)
	maps.Copy(out, b)
	return out
}

// TestInputSetsMatchModel drives random sequences of the lattice operations
// over 300 names (so sets reach into their second and third overflow words)
// and checks every result against the map model, and every operand against
// a copy of its bits taken before the operation: a join must never write
// into an operand, because operands share overflow words.
func TestInputSetsMatchModel(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := &nameTable{}
		names := make([]string, 300)
		for i := range names {
			names[i] = fmt.Sprintf("v%d_%x", i, rng.Uint32())
		}
		pool := []modelAC{{ConstantAC(), map[string]bool{}}}
		pick := func() modelAC { return pool[rng.Intn(len(pool))] }
		for step := 0; step < 4000; step++ {
			if rng.Intn(3) == 0 {
				n := names[rng.Intn(len(names))]
				leaf := tab.linear(n)
				leaf.Varying = rng.Intn(8) == 0
				pool = append(pool, modelAC{leaf, map[string]bool{n: true}})
				continue
			}
			x, y, z := pick(), pick(), pick()
			before := [][]uint64{words(x.ac), words(y.ac), words(z.ac)}
			var got AC
			want := union(x.model, y.model)
			switch rng.Intn(7) {
			case 0:
				got = Max(x.ac, y.ac)
			case 1:
				got, want = Min(x.ac, y.ac), x.model
				if Less(y.ac, x.ac) {
					want = y.model
				}
			case 2:
				got = Add(x.ac, y.ac)
				if !got.Equal(Add(y.ac, x.ac)) {
					t.Fatalf("seed %d step %d: Add is not symmetric", seed, step)
				}
			case 3:
				got = Mul(x.ac, y.ac)
			case 4:
				got = Div(x.ac, y.ac)
			case 5:
				got, want = Arb(x.ac, y.ac, z.ac), union(want, z.model)
			case 6:
				got = Raise(x.ac, y.ac)
			}
			for i, o := range []modelAC{x, y, z} {
				if !slices.Equal(before[i], words(o.ac)) {
					t.Fatalf("seed %d step %d: operand %d changed", seed, step, i)
				}
			}
			checkModel(t, fmt.Sprintf("seed %d step %d", seed, step), got, want)
			pool = append(pool, modelAC{got, want})
		}
		// Every set, early or late, still holds what its model says.
		for i, m := range pool {
			checkModel(t, fmt.Sprintf("seed %d pool[%d]", seed, i), m.ac, m.model)
		}
		for i := 0; i < 4000; i++ {
			x, y := pick(), pick()
			want := x.ac.Type == y.ac.Type && x.ac.Degree == y.ac.Degree && x.ac.Varying == y.ac.Varying && maps.Equal(x.model, y.model)
			if got := x.ac.Equal(y.ac); got != want {
				t.Fatalf("seed %d: Equal(%v %v, %v %v) = %v", seed, x.ac, x.ac.InputNames(), y.ac, y.ac.InputNames(), got)
			}
		}
	}
}

func checkModel(t *testing.T, where string, got AC, want map[string]bool) {
	t.Helper()
	names := make([]string, 0, len(want))
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	if got.NumInputs() != len(want) || !slices.Equal(got.InputNames(), names) {
		t.Fatalf("%s: inputs %v (%d), model %v", where, got.InputNames(), got.NumInputs(), names)
	}
}

// TestInputSetOverflowWords pins the two overflow-word rules: missing words
// count as zero, and a join hands back an operand's words when the other's
// are a subset of them.
func TestInputSetOverflowWords(t *testing.T) {
	tab := &nameTable{}
	for i := 0; i < 200; i++ {
		tab.id(fmt.Sprint("v", i))
	}
	set := func(hi ...uint64) AC { return AC{Type: Linear, Degree: 1, inputs: inputSet{lo: 1, hi: hi, table: tab}} }
	short, long := set(0, 4), set(0, 4, 0)
	if !short.Equal(long) || !long.Equal(short) {
		t.Errorf("sets differing only in trailing zero words compare unequal")
	}
	if short.Equal(set(0, 4, 1)) || set(0, 4, 1).Equal(short) {
		t.Errorf("a set with an extra bit in a longer tail compares equal")
	}
	if got := short.InputNames(); !slices.Equal(got, []string{"v0", "v130"}) {
		t.Errorf("names %v", got)
	}

	big, small := set(3, 4), set(1)
	for _, got := range []AC{Add(big, small), Add(small, big)} {
		if &got.inputs.hi[0] != &big.inputs.hi[0] {
			t.Errorf("a join with a subset copied the superset's overflow words")
		}
	}
	x, y := set(1), set(2)
	if got := Add(x, y).inputs.hi; !slices.Equal(got, []uint64{3}) || x.inputs.hi[0] != 1 || y.inputs.hi[0] != 2 {
		t.Errorf("join of incomparable overflow words: %v from %v and %v", got, x.inputs.hi, y.inputs.hi)
	}
}
