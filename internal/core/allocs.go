package core

import "runtime/metrics"

// HeapCounters is one reading of the process's heap accounting: cumulative
// bytes and objects allocated since start, and the bytes live right now.
type HeapCounters struct {
	AllocBytes, AllocObjects uint64
	LiveBytes                uint64
}

// ReadHeapCounters samples the heap through runtime/metrics: well under a
// microsecond and, unlike runtime.ReadMemStats, without stopping the world,
// so a backend can bracket every run with it — including the sub-millisecond
// scoped runs of a serving process. The price is precision: the runtime
// folds small-object allocations into these counters when a span is
// retired, so the delta across a short run can lag by up to a span per size
// class; sums over many runs are exact.
func ReadHeapCounters() HeapCounters {
	samples := [...]metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
	metrics.Read(samples[:])
	return HeapCounters{
		AllocBytes:   samples[0].Value.Uint64(),
		AllocObjects: samples[1].Value.Uint64(),
		LiveBytes:    samples[2].Value.Uint64(),
	}
}
