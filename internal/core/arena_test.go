package core

import (
	"reflect"
	"sync"
	"testing"

	"snaple/internal/graph"
)

func TestArenaBuildProtocol(t *testing.T) {
	a := NewArena[int](4)
	counts := []int{2, 0, 3, 1}
	for u, c := range counts {
		a.SetCount(graph.VertexID(u), c)
	}
	a.FinishCounts()
	if a.Total() != 6 {
		t.Fatalf("Total = %d, want 6", a.Total())
	}
	val := 0
	for u := 0; u < a.NumRows(); u++ {
		row := a.Row(graph.VertexID(u))
		if len(row) != counts[u] {
			t.Fatalf("row %d length %d, want %d", u, len(row), counts[u])
		}
		for i := range row {
			row[i] = val
			val++
		}
	}
	if got := a.Row(2); !reflect.DeepEqual(got, []int{2, 3, 4}) {
		t.Errorf("Row(2) = %v", got)
	}
	if got := a.Row(1); len(got) != 0 || got == nil {
		t.Errorf("empty row should be non-nil zero-length, got %#v", got)
	}
}

// TestRankArena pins the rank-indexed form to the identity form's contract
// over a sparse member list: the count/fill protocol addressed by global
// id, rows in member order in one backing array, and an empty non-nil row
// for every vertex outside the list.
func TestRankArena(t *testing.T) {
	members := []graph.VertexID{3, 17, 18, 1000, 70000}
	counts := []int{2, 0, 3, 1, 4}
	a := NewRankArena[int](members)
	if a.NumRows() != len(members) {
		t.Fatalf("NumRows = %d, want %d", a.NumRows(), len(members))
	}
	for i, u := range members {
		a.SetCount(u, counts[i])
	}
	a.SetCount(5, 0) // a non-member may be given the empty row it has
	a.FinishCounts()
	if a.Total() != 10 {
		t.Fatalf("Total = %d, want 10", a.Total())
	}
	val := 0
	for i, u := range members {
		row := a.Row(u)
		if len(row) != counts[i] {
			t.Fatalf("row %d length %d, want %d", u, len(row), counts[i])
		}
		for j := range row {
			row[j] = val
			val++
		}
	}
	if got := a.Row(18); !reflect.DeepEqual(got, []int{2, 3, 4}) {
		t.Errorf("Row(18) = %v", got)
	}
	if got := a.Row(70000); !reflect.DeepEqual(got, []int{6, 7, 8, 9}) {
		t.Errorf("Row(70000) = %v", got)
	}
	for _, u := range []graph.VertexID{0, 4, 17, 19, 999, 1001, 69999, 70001, 1 << 30} {
		if got := a.Row(u); len(got) != 0 || got == nil {
			t.Errorf("Row(%d) = %#v, want an empty non-nil row", u, got)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetCount gave a non-member a non-empty row")
			}
		}()
		NewRankArena[int](members).SetCount(4, 1)
	}()
}

// TestRankArenaEmpty: an empty member list is a legitimate arena with no
// rows, not the identity form over an empty graph.
func TestRankArenaEmpty(t *testing.T) {
	for _, members := range [][]graph.VertexID{nil, {}} {
		a := NewRankArena[int](members)
		a.SetCount(9, 0)
		a.FinishCounts()
		if a.NumRows() != 0 || a.Total() != 0 {
			t.Fatalf("NumRows %d, Total %d, want 0, 0", a.NumRows(), a.Total())
		}
		if got := a.Row(9); len(got) != 0 || got == nil {
			t.Errorf("Row(9) = %#v, want an empty non-nil row", got)
		}
	}
}

// TestArenaConcurrentDisjointWrites runs both passes of the build protocol
// from several goroutines over disjoint vertices, on both forms; under
// -race it checks the "no synchronisation beyond a barrier" claim.
func TestArenaConcurrentDisjointWrites(t *testing.T) {
	const n, workers = 4096, 8
	members := make([]graph.VertexID, n)
	for i := range members {
		members[i] = graph.VertexID(i * 7)
	}
	for name, a := range map[string]*Arena[int]{
		"identity": NewArena[int](n * 7),
		"rank":     NewRankArena[int](members),
	} {
		each := func(fn func(u graph.VertexID)) {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := w; i < n; i += workers {
						fn(members[i])
					}
				}()
			}
			wg.Wait()
		}
		each(func(u graph.VertexID) { a.SetCount(u, int(u%5)) })
		a.FinishCounts()
		each(func(u graph.VertexID) {
			for j, row := 0, a.Row(u); j < len(row); j++ {
				row[j] = int(u) + j
			}
		})
		for _, u := range members {
			row := a.Row(u)
			if len(row) != int(u%5) {
				t.Fatalf("%s: row %d length %d, want %d", name, u, len(row), u%5)
			}
			for j, x := range row {
				if x != int(u)+j {
					t.Fatalf("%s: row %d[%d] = %d, want %d", name, u, j, x, int(u)+j)
				}
			}
		}
	}
}
