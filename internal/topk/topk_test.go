package topk

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// sortedRef is the oracle: full sort by (score desc, id asc), first k.
func sortedRef(k int, items []Item) []Item {
	cp := make([]Item, len(items))
	copy(cp, items)
	sort.Slice(cp, func(i, j int) bool { return less(cp[j], cp[i]) })
	if len(cp) > k {
		cp = cp[:k]
	}
	return cp
}

func itemsEqual(a, b []Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSelectTableCases(t *testing.T) {
	tests := []struct {
		name  string
		k     int
		items []Item
		want  []Item
	}{
		{"empty", 3, nil, nil},
		{"k zero", 0, []Item{{1, 1}}, nil},
		{"fewer than k", 5, []Item{{2, 0.5}, {1, 0.9}}, []Item{{1, 0.9}, {2, 0.5}}},
		{"exact k", 2, []Item{{3, 0.1}, {2, 0.5}, {1, 0.9}}, []Item{{1, 0.9}, {2, 0.5}}},
		{
			"ties broken by id ascending",
			3,
			[]Item{{9, 0.5}, {4, 0.5}, {7, 0.5}, {1, 0.1}},
			[]Item{{4, 0.5}, {7, 0.5}, {9, 0.5}},
		},
		{
			"negative scores",
			2,
			[]Item{{1, -3}, {2, -1}, {3, -2}},
			[]Item{{2, -1}, {3, -2}},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Select(tt.k, tt.items)
			if !itemsEqual(got, tt.want) {
				t.Errorf("Select(%d) = %v, want %v", tt.k, got, tt.want)
			}
		})
	}
}

func TestSelectMatchesSortOracle(t *testing.T) {
	f := func(seed int64, kRaw uint8, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw%20) + 1
		n := int(nRaw)
		items := make([]Item, n)
		for i := range items {
			// Small ID and score spaces force frequent ties.
			items[i] = Item{ID: uint32(rng.Intn(30)), Score: float64(rng.Intn(5))}
		}
		return itemsEqual(Select(k, items), sortedRef(k, items))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestAppendResultAnyK holds AppendResult to the sort oracle for heaps of
// one, two and several levels, appending after existing items and leaving
// the collector as it was.
func TestAppendResultAnyK(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 2, 3, 7, 8, 100} {
		for _, n := range []int{0, 1, k / 2, k, 3 * k} {
			items := make([]Item, n)
			for i, id := range rng.Perm(n) {
				items[i] = Item{ID: uint32(id), Score: float64(rng.Intn(n/4 + 1))}
			}
			c := New(k)
			for _, it := range items {
				c.Push(it.ID, it.Score)
			}
			prefix := []Item{{ID: 99, Score: -1}}
			got := c.AppendResult(prefix)
			want := sortedRef(k, items)
			if !itemsEqual(got[:1], prefix) || !itemsEqual(got[1:], want) {
				t.Fatalf("k=%d n=%d: AppendResult = %v, want %v after %v", k, n, got, want, prefix)
			}
			if again := c.Result(); !itemsEqual(again, want) {
				t.Fatalf("k=%d n=%d: a second extraction gave %v, want %v", k, n, again, want)
			}
		}
	}
}

func TestSelectOrderIndependence(t *testing.T) {
	items := []Item{{5, 0.2}, {1, 0.9}, {7, 0.2}, {3, 0.9}, {2, 0.4}}
	want := Select(3, items)
	perm := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		shuffled := make([]Item, len(items))
		copy(shuffled, items)
		perm.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		if got := Select(3, shuffled); !itemsEqual(got, want) {
			t.Fatalf("Select depends on input order: got %v want %v", got, want)
		}
	}
}

func TestCollectorIncremental(t *testing.T) {
	c := New(2)
	if c.Len() != 0 || c.K() != 2 {
		t.Fatal("fresh collector has wrong shape")
	}
	c.Push(1, 0.5)
	got := c.Result()
	if !itemsEqual(got, []Item{{1, 0.5}}) {
		t.Fatalf("after one push: %v", got)
	}
	c.Push(2, 0.9)
	c.Push(3, 0.1) // should be rejected once full of better items
	got = c.Result()
	if !itemsEqual(got, []Item{{2, 0.9}, {1, 0.5}}) {
		t.Fatalf("after three pushes: %v", got)
	}
	// Result must not consume: pushing still works.
	c.Push(4, 1.5)
	got = c.Result()
	if !itemsEqual(got, []Item{{4, 1.5}, {2, 0.9}}) {
		t.Fatalf("after fourth push: %v", got)
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatal("Reset did not empty collector")
	}
}

func TestBottom(t *testing.T) {
	items := []Item{{1, 0.9}, {2, 0.1}, {3, 0.5}, {4, 0.1}}
	got := Bottom(2, items)
	// Worst first; ties on 0.1 broken by id ascending.
	want := []Item{{2, 0.1}, {4, 0.1}}
	if !itemsEqual(got, want) {
		t.Fatalf("Bottom = %v, want %v", got, want)
	}
	if Bottom(0, items) != nil || Bottom(3, nil) != nil {
		t.Fatal("Bottom edge cases should return nil")
	}
}

func TestNewPanicsOnNonPositiveK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func BenchmarkCollectorPush(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	scores := make([]float64, 4096)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	c := New(20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Push(uint32(i), scores[i%len(scores)])
	}
}
