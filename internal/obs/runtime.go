package obs

import "runtime"

// RuntimeFamilies returns Go runtime health series — goroutine count, heap
// occupancy, GC cycles and cumulative pause. Register it with
// serve.Metrics.RegisterCollector; the cost (a ReadMemStats) is paid at
// scrape time, never on the predict path.
func RuntimeFamilies() []PromFamily {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	series := []struct {
		name, help, kind string
		val              float64
	}{
		{"ioserve_go_goroutines", "Live goroutines.", "gauge", float64(runtime.NumGoroutine())},
		{"ioserve_go_heap_alloc_bytes", "Heap bytes allocated and in use.", "gauge", float64(ms.HeapAlloc)},
		{"ioserve_go_heap_objects", "Live heap objects.", "gauge", float64(ms.HeapObjects)},
		{"ioserve_go_sys_bytes", "Total bytes obtained from the OS.", "gauge", float64(ms.Sys)},
		{"ioserve_go_next_gc_bytes", "Heap size that triggers the next GC cycle.", "gauge", float64(ms.NextGC)},
		{"ioserve_go_gc_cycles_total", "Completed GC cycles.", "counter", float64(ms.NumGC)},
		{"ioserve_go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause.", "counter", float64(ms.PauseTotalNs) / 1e9},
	}
	out := make([]PromFamily, 0, len(series))
	for _, s := range series {
		out = append(out, PromFamily{Name: s.name, Help: s.help, Type: s.kind, Samples: []PromSample{{Name: s.name, Value: s.val}}})
	}
	return out
}
