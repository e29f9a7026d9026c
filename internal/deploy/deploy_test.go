package deploy

import (
	"flag"
	"slices"
	"strings"
	"testing"
	"time"

	"snaple/internal/cluster"
	"snaple/internal/engine"
	"snaple/internal/partition"
)

// TestBindFlags: every shared flag defaults to its field's value at bind
// time and parses into that field; -addrs splits on commas.
func TestBindFlags(t *testing.T) {
	o := Options{Score: "PPR", Engine: "sim", Seed: 7, WorkerAddrs: []string{"a:1", "b:2"}}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o.BindFlags(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	want := []string{"addrs", "alpha", "dial-attempts", "engine", "klocal", "policy", "replicas",
		"score", "seed", "spawn", "step-timeout", "thr", "worker-bin", "workers"}
	if !slices.Equal(names, want) {
		t.Fatalf("flags %v, want %v", names, want)
	}
	for name, def := range map[string]string{"score": "PPR", "engine": "sim", "seed": "7", "addrs": "a:1,b:2", "workers": "0"} {
		if got := fs.Lookup(name).DefValue; got != def {
			t.Errorf("-%s defaults to %q, want %q", name, got, def)
		}
	}
	err := fs.Parse([]string{"-engine", "dist", "-addrs", "h0:7,h1:7", "-replicas", "2", "-step-timeout", "3s", "-klocal", "9"})
	if err != nil {
		t.Fatal(err)
	}
	if o.Engine != "dist" || !slices.Equal(o.WorkerAddrs, []string{"h0:7", "h1:7"}) || o.Replicas != 2 ||
		o.StepTimeout != 3*time.Second || o.KLocal != 9 || o.Score != "PPR" {
		t.Errorf("parsed into %+v", o)
	}
	if err := fs.Parse([]string{"-addrs", ""}); err != nil || o.WorkerAddrs != nil {
		t.Errorf("-addrs \"\" = %q, %v; want no addresses", o.WorkerAddrs, err)
	}
}

// TestBackend: each engine name resolves to its backend, carrying the
// deployment fields that apply to it, and every misconfiguration fails
// before anything is dialed or read.
func TestBackend(t *testing.T) {
	for _, name := range []string{"", "local"} {
		if be, err := (Options{Engine: name, Workers: 3}).Backend(nil, false); err != nil || be != (engine.Local{Workers: 3}) {
			t.Errorf("%q: %#v, %v", name, be, err)
		}
	}
	if be, err := (Options{Engine: "serial"}).Backend(nil, false); err != nil || be != (engine.Serial{}) {
		t.Errorf("serial: %#v, %v", be, err)
	}
	be, err := Options{Engine: "sim", Nodes: 2, NodeType: "type-I", Strategy: "greedy", Seed: 4, Workers: 1}.Backend(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if sim := be.(engine.Sim); sim.Nodes != 2 || sim.Spec != cluster.TypeI() || sim.Strategy != (partition.Greedy{}) || sim.Seed != 4 || sim.Workers != 1 {
		t.Errorf("sim: %+v", sim)
	}
	be, err = Options{Engine: "dist", Workers: 3, Seed: 4, WireCompress: true, Replicas: 2}.Backend(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if d := be.(engine.Dist); d.InProc != 3 || d.Seed != 4 || !d.Compress || d.Replicas != 2 || d.Strategy != (partition.HashEdge{Seed: 4}) {
		t.Errorf("dist: %+v", d)
	}

	for name, o := range map[string]Options{
		"unknown engine":    {Engine: "nope"},
		"unknown node type": {Engine: "sim", NodeType: "type-III"},
		"unknown strategy":  {Engine: "dist", Strategy: "nope"},
		"manifest on sim":   {Engine: "sim", Manifest: "absent.manifest"},
		"absent manifest":   {Engine: "dist", Manifest: "absent.manifest"},
	} {
		if _, err := o.Backend(nil, false); err == nil {
			t.Errorf("%s: accepted", name)
		} else if name == "unknown engine" && !strings.Contains(err.Error(), strings.Join(engine.Names(), "|")) {
			t.Errorf("%s: %v does not list the engines", name, err)
		}
	}
}

// TestConfig: names resolve, defaults fill, and a bad value fails here.
func TestConfig(t *testing.T) {
	cfg, err := Options{}.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Score.Name != "linearSum" || cfg.K != 5 || cfg.Paths != 2 {
		t.Errorf("defaults: %+v", cfg)
	}
	for _, o := range []Options{{Score: "nope"}, {Policy: "nope"}, {Paths: 5}, {K: -1}, {Alpha: 2}} {
		if _, err := o.Config(); err == nil {
			t.Errorf("%+v accepted", o)
		}
	}
}
