package experiments

// A tiny named-metric side channel for scalar results that matter to
// the perf trajectory but do not fit the wall/alloc columns sdtbench's
// -json mode measures itself — e.g. loadgen-sweep-xl's flowsim_speedup.
// Experiments record metrics as they run; the CLI drains them into the
// JSON report after each experiment.

import "sync"

var (
	metricsMu sync.Mutex
	metrics   = map[string]float64{}
)

// RecordMetric publishes a named scalar from an experiment run,
// overwriting any previous value. Safe for concurrent use.
func RecordMetric(name string, v float64) {
	metricsMu.Lock()
	defer metricsMu.Unlock()
	metrics[name] = v
}

// TakeMetrics returns all metrics recorded since the last call and
// resets the registry.
func TakeMetrics() map[string]float64 {
	metricsMu.Lock()
	defer metricsMu.Unlock()
	out := metrics
	metrics = map[string]float64{}
	return out
}
