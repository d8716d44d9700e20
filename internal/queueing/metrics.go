package queueing

import (
	"rubik/internal/stats"
)

// Responses returns the response latencies in ns of all completions after
// skipping the leading warmupFrac fraction (by completion order). Skipping
// warmup excludes the interval before online-profiled policies (Rubik)
// have built their first model, matching the paper's steady-state
// measurement.
func (r Result) Responses(warmupFrac float64) []float64 {
	return r.AppendResponses(make([]float64, 0, r.NumResponses(warmupFrac)), warmupFrac)
}

// NumResponses returns how many completions remain after the warmup
// prefix: the length Responses would return.
func (r Result) NumResponses(warmupFrac float64) int { return len(r.warm(warmupFrac)) }

// AppendResponses appends the post-warmup response latencies (ns) to dst,
// so callers pooling several results can size one slice up front.
func (r Result) AppendResponses(dst []float64, warmupFrac float64) []float64 {
	for _, c := range r.warm(warmupFrac) {
		dst = append(dst, c.ResponseNs)
	}
	return dst
}

// warm returns the completions after the warmup prefix.
func (r Result) warm(warmupFrac float64) []Completion {
	if warmupFrac <= 0 {
		return r.Completions
	}
	skip := int(warmupFrac * float64(len(r.Completions)))
	if skip >= len(r.Completions) {
		return nil
	}
	return r.Completions[skip:]
}

// TailNs returns the q-quantile response latency after warmup. When the
// completion log was streamed out (Config.DropCompletions) it falls back
// to the aggregate response histogram, which covers the whole run —
// warmup cannot be trimmed retroactively from a streamed run.
func (r Result) TailNs(q, warmupFrac float64) float64 {
	if len(r.Completions) == 0 && r.ResponseHist != nil {
		return r.ResponseHist.Quantile(q)
	}
	return stats.SelectPercentile(r.Responses(warmupFrac), q)
}

// ViolationFrac returns the fraction of post-warmup responses above
// boundNs. Like TailNs it falls back to the aggregate histogram when the
// completion log was streamed out (bucket-resolution estimate over the
// whole run, no warmup trim).
func (r Result) ViolationFrac(boundNs, warmupFrac float64) float64 {
	if len(r.Completions) == 0 && r.ResponseHist != nil {
		return r.ResponseHist.FracAbove(boundNs)
	}
	cs := r.warm(warmupFrac)
	if len(cs) == 0 {
		return 0
	}
	n := 0
	for _, c := range cs {
		if c.ResponseNs > boundNs {
			n++
		}
	}
	return float64(n) / float64(len(cs))
}

// EnergyPerRequestJ returns active core energy per completed request — the
// metric of the paper's Figs. 1a and 9b. Served counts completions even
// when the log itself was streamed out.
func (r Result) EnergyPerRequestJ() float64 {
	n := r.Served
	if n == 0 {
		// Hand-assembled Results may carry a completion log without the
		// counter.
		n = len(r.Completions)
	}
	if n == 0 {
		return 0
	}
	return r.ActiveEnergyJ / float64(n)
}

// MeanActivePowerW returns active energy divided by total wall time — the
// "core power" of the paper's Fig. 6 savings comparison.
func (r Result) MeanActivePowerW() float64 {
	total := r.ActiveNs + r.IdleNs
	if total == 0 {
		return 0
	}
	return r.ActiveEnergyJ / (float64(total) / 1e9)
}

// Utilization returns the fraction of wall time the core was serving.
func (r Result) Utilization() float64 {
	total := r.ActiveNs + r.IdleNs
	if total == 0 {
		return 0
	}
	return float64(r.ActiveNs) / float64(total)
}
