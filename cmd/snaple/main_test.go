package main

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"snaple"
)

func TestLoad(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(file, []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name        string
		in, dataset string
		wantErr     bool
	}{
		{"from file", file, "", false},
		{"from dataset", "", "gowalla", false},
		{"both", file, "gowalla", true},
		{"neither", "", "", true},
		{"missing file", filepath.Join(dir, "absent.txt"), "", true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g, err := load(tt.in, tt.dataset, 0.1, 1, snaple.GraphReadOptions{})
			if tt.wantErr {
				if err == nil {
					t.Error("want error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if g.NumEdges() == 0 {
				t.Error("empty graph loaded")
			}
		})
	}
}

// TestPack covers the pack subcommand: text -> snapshot conversion, the
// default output path, option pass-through, re-packing a snapshot, the
// packed file loading back through the auto-detecting -in path, and the
// error cases.
func TestPack(t *testing.T) {
	dir := t.TempDir()
	text := filepath.Join(dir, "g.txt")
	// Vertex 5 exists only via the header: pack must preserve it.
	if err := os.WriteFile(text, []byte("# vertices: 6\n0 1\n1 2\n3 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := runPack([]string{"-in", text, "-preserve-ids", "-in-edges"}, &out); err != nil {
		t.Fatal(err)
	}
	sgr := filepath.Join(dir, "g.sgr") // default: input path with .sgr extension
	g, err := load(sgr, "", 0, 0, snaple.GraphReadOptions{})
	if err != nil {
		t.Fatalf("load packed: %v", err)
	}
	if g.NumVertices() != 6 || g.NumEdges() != 3 {
		t.Fatalf("packed graph is %s, want V=6 E=3", g)
	}
	if !g.HasInEdges() {
		t.Error("-in-edges not packed")
	}
	if !strings.Contains(out.String(), "packed") {
		t.Errorf("no pack summary printed: %q", out.String())
	}

	// Re-pack the snapshot to an explicit path.
	repacked := filepath.Join(dir, "g2.sgr")
	if err := runPack([]string{"-in", sgr, "-out", repacked}, &out); err != nil {
		t.Fatalf("re-pack: %v", err)
	}
	g2, err := load(repacked, "", 0, 0, snaple.GraphReadOptions{})
	if err != nil || g2.NumEdges() != 3 {
		t.Fatalf("re-packed graph: %s err=%v", g2, err)
	}

	if err := runPack(nil, &out); err == nil {
		t.Error("pack without -in: want error")
	}
	// Re-packing in place would truncate (and on failure delete) the input.
	if err := runPack([]string{"-in", sgr}, &out); err == nil || !strings.Contains(err.Error(), "overwrite") {
		t.Errorf("pack onto the input path: want overwrite error, got %v", err)
	}
	if err := runPack([]string{"-in", text, "-out", text}, &out); err == nil {
		t.Error("pack -out equal to -in: want error")
	}
	// A differently-spelled path to the same file must be caught too.
	link := filepath.Join(dir, "alias.sgr")
	if err := os.Symlink(sgr, link); err == nil {
		if err := runPack([]string{"-in", sgr, "-out", link}, &out); err == nil {
			t.Error("pack -out symlinked to -in: want error")
		}
	}
	if err := runPack([]string{"-in", filepath.Join(dir, "absent.txt")}, &out); err == nil {
		t.Error("pack of missing file: want error")
	}
}

// TestLoadAutoDetect: -in accepts both formats interchangeably.
func TestLoadAutoDetect(t *testing.T) {
	dir := t.TempDir()
	text := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(text, []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	gText, err := load(text, "", 0, 0, snaple.GraphReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := runPack([]string{"-in", text}, io.Discard); err != nil {
		t.Fatal(err)
	}
	gSnap, err := load(filepath.Join(dir, "g.sgr"), "", 0, 0, snaple.GraphReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if gText.NumVertices() != gSnap.NumVertices() || gText.NumEdges() != gSnap.NumEdges() {
		t.Fatalf("text load %s != snapshot load %s", gText, gSnap)
	}
}

// TestEngineListIsShared guards the one-source-of-truth rule: every backend
// the engine layer knows, including dist, must be accepted by the CLI and
// enumerated in its error message for a bogus engine.
func TestEngineListIsShared(t *testing.T) {
	err := run([]string{
		"-dataset", "gowalla", "-scale", "0.1", "-seed", "1", "-system", "walks",
		"-walks", "2", "-depth", "2", "-k", "1", "-engine", "nope",
	})
	if err == nil {
		t.Fatal("bogus engine accepted")
	}
	for _, name := range snaple.EngineNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not enumerate backend %q", err, name)
		}
	}
}

// TestParseSources covers the -sources flag's two spellings: an inline
// comma list and an @file of whitespace-separated IDs with comments.
func TestParseSources(t *testing.T) {
	if got, err := parseSources(""); err != nil || got != nil {
		t.Fatalf("empty = (%v, %v)", got, err)
	}
	got, err := parseSources("3, 1,4")
	if err != nil {
		t.Fatal(err)
	}
	if want := []snaple.VertexID{3, 1, 4}; !slices.Equal(got, want) {
		t.Fatalf("inline = %v, want %v", got, want)
	}

	file := filepath.Join(t.TempDir(), "ids.txt")
	if err := os.WriteFile(file, []byte("# cohort A\n10 11\n12 # trailing comment\n\n13\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = parseSources("@" + file)
	if err != nil {
		t.Fatal(err)
	}
	if want := []snaple.VertexID{10, 11, 12, 13}; !slices.Equal(got, want) {
		t.Fatalf("file = %v, want %v", got, want)
	}

	for _, bad := range []string{"1,x", "-3", ",", "@" + filepath.Join(t.TempDir(), "absent"), "@" + file + "x"} {
		if _, err := parseSources(bad); err == nil {
			t.Errorf("parseSources(%q) accepted", bad)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	base := []string{
		"-dataset", "gowalla", "-scale", "0.1", "-seed", "1",
		"-system", "snaple", "-score", "linearSum", "-k", "5", "-klocal", "10", "-thr", "50",
		"-policy", "max", "-alpha", "0.9", "-nodes", "2", "-nodetype", "type-I",
		"-strategy", "hash-edge", "-eval", "-vertex", "3",
	}
	for _, tc := range []struct {
		name string
		args []string
		ok   bool
	}{
		{"snaple distributed", nil, true},
		{"snaple serial", []string{"-engine", "serial"}, true},
		{"snaple dist loopback", []string{"-engine", "dist", "-workers", "2"}, true},
		{"baseline", []string{"-system", "baseline"}, true},
		{"walks", []string{"-system", "walks", "-walks", "10", "-depth", "3"}, true},
		{"bad system", []string{"-system", "nope"}, false},
		{"bad score", []string{"-score", "nope"}, false},
		{"bad engine", []string{"-engine", "nope"}, false},
		{"exhaustion reported not fatal", []string{"-system", "baseline", "-budget", "1024"}, true},
		{"scoped local", []string{"-engine", "local", "-sources", "3,5,9", "-eval=false"}, true},
		{"scoped sim", []string{"-sources", "0,1", "-eval=false"}, true},
		{"scoped dist", []string{"-engine", "dist", "-workers", "2", "-sources", "3", "-eval=false"}, true},
		{"sources bad id", []string{"-sources", "3,x"}, false},
		{"sources out of range", []string{"-engine", "local", "-sources", "99999999", "-eval=false"}, false},
		{"sources wrong system", []string{"-system", "walks", "-sources", "1", "-eval=false"}, false},
		{"sources with eval rejected", []string{"-engine", "local", "-sources", "1"}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(append(slices.Clip(base), tc.args...))
			if tc.ok && err != nil {
				t.Fatalf("run failed: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("want error")
			}
		})
	}
}
