package main

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// A request whose children overlap each other and run past its end.
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Name: "a", Start: 10, End: 40, Parent: 1},
		{ID: 3, Name: "b", Start: 30, End: 60, Parent: 1},    // overlaps a by 10
		{ID: 4, Name: "c", Start: 90, End: 130, Parent: 1},   // 10 inside the parent
		{ID: 5, Name: "leaf", Start: 35, End: 38, Parent: 3}, // grandchild: b's, not the request's
		// Two handlers answered by one shared engine run. The run belongs
		// to the older handler; the younger one's wait for it is its own
		// (queueing) self time.
		{ID: 6, Name: "serve.handle", Start: 200, End: 300},
		{ID: 7, Name: "serve.handle", Start: 220, End: 310},
		{ID: 8, Name: "engine.predict", Start: 230, End: 290, Parent: 6},
	}
	want := map[int64]int64{
		1: 100 - (50 + 10), // a∪b cover 10..60, c covers 90..100
		2: 30,
		3: 30 - 3,
		4: 40,
		5: 3,
		6: 100 - 60,
		7: 90,
		8: 60,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	lt := layerTimes(spans)["serve.handle"]
	if lt.Count != 2 || math.Abs(lt.TotalMs-190e-6) > 1e-12 || math.Abs(lt.SelfMs-130e-6) > 1e-12 {
		t.Errorf("serve.handle layer = %+v, want 2 spans, 190 ns total, 130 ns self", lt)
	}
}

func TestSpansRoundTrip(t *testing.T) {
	tr := newTracer()
	id := tr.reserve()
	child := tr.add("engine.predict", tr.epoch.Add(5), tr.epoch.Add(9), id, 7, map[string]int64{"sources": 3, "alloc_bytes": 1 << 20})
	tr.finish(id, "serve.handle", tr.epoch.Add(1), tr.epoch.Add(12), 0, 7, nil)
	want := []span{
		{ID: id, Name: "serve.handle", Start: 1, End: 12, Req: 7},
		{ID: child, Name: "engine.predict", Start: 5, End: 9, Parent: id, Req: 7, Attrs: map[string]int64{"sources": 3, "alloc_bytes": 1 << 20}},
	}
	var buf bytes.Buffer
	if err := writeSpans(&buf, tr.snapshot()); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n != 2 {
		t.Errorf("%d lines for 2 spans:\n%s", n, buf.String())
	}
	got, err := readSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip = %+v, want %+v", got, want)
	}

	var off *tracer
	if off.add("x", tr.epoch, tr.epoch, 0, 0, nil) != 0 || off.reserve() != 0 || off.snapshot() != nil {
		t.Error("a nil tracer must record nothing")
	}
	off.finish(0, "x", tr.epoch, tr.epoch, 0, 0, nil)
}
