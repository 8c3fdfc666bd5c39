package loadgen

import "fmt"

// SizeDist draws flow sizes in bytes. Mean must return the analytic
// mean of the distribution — the load calculation uses it to convert a
// target load factor into a Poisson arrival rate, so a wrong mean
// shifts the offered load.
type SizeDist interface {
	Name() string
	Mean() float64
	Sample(r *RNG) int
}

// fixedSize draws a constant.
type fixedSize int

// FixedSize returns a distribution that always draws `bytes`.
func FixedSize(bytes int) SizeDist {
	if bytes < 1 {
		panic("loadgen: FixedSize needs bytes >= 1")
	}
	return fixedSize(bytes)
}

func (f fixedSize) Name() string    { return fmt.Sprintf("fixed-%dB", int(f)) }
func (f fixedSize) Mean() float64   { return float64(f) }
func (f fixedSize) Sample(*RNG) int { return int(f) }

// CDFPoint is one point of an empirical flow-size CDF: Frac of flows
// are of size <= Bytes.
type CDFPoint struct {
	Bytes int
	Frac  float64
}

// CDF is an empirical flow-size distribution sampled by inverse
// transform with linear interpolation between points — the standard
// way datacenter-workload CDFs (web-search, data-mining) are replayed.
type CDF struct {
	name string
	pts  []CDFPoint
	mean float64
}

// NewCDF builds an empirical distribution. Points must be strictly
// increasing in both Bytes and Frac, and the last Frac must be 1. A
// leading implicit point at (0, 0) anchors the first segment.
func NewCDF(name string, pts []CDFPoint) *CDF {
	if len(pts) == 0 {
		panic("loadgen: empty CDF")
	}
	prev := CDFPoint{Bytes: 0, Frac: 0}
	mean := 0.0
	for _, p := range pts {
		if p.Bytes <= prev.Bytes || p.Frac <= prev.Frac || p.Frac > 1 {
			panic(fmt.Sprintf("loadgen: CDF %s not strictly increasing at %+v", name, p))
		}
		// Sizes are uniform within a segment, so the segment contributes
		// its midpoint weighted by its probability mass. Products are
		// rounded explicitly (float64(x*y)) so that no architecture
		// fuses them into the sums, here and in Sample.
		mean += float64((p.Frac - prev.Frac) * float64(p.Bytes+prev.Bytes) / 2)
		prev = p
	}
	if prev.Frac != 1 {
		panic(fmt.Sprintf("loadgen: CDF %s must end at Frac=1, got %g", name, prev.Frac))
	}
	return &CDF{name: name, pts: pts, mean: mean}
}

func (c *CDF) Name() string  { return c.name }
func (c *CDF) Mean() float64 { return c.mean }

// Sample inverts the CDF at a uniform variate.
func (c *CDF) Sample(r *RNG) int {
	u := float64(r.Float64()) // or Float64's scaling fuses into u - prev.Frac
	prev := CDFPoint{Bytes: 0, Frac: 0}
	for _, p := range c.pts {
		if u <= p.Frac {
			span := p.Frac - prev.Frac
			t := (u - prev.Frac) / span
			b := float64(prev.Bytes) + float64(t*float64(p.Bytes-prev.Bytes))
			if b < 1 {
				b = 1
			}
			return int(b)
		}
		prev = p
	}
	return c.pts[len(c.pts)-1].Bytes
}

// WebSearch is the DCTCP web-search flow-size distribution (Alizadeh
// et al., SIGCOMM'10): mostly short query/response flows with a heavy
// tail of multi-megabyte background transfers. Analytic mean
// (piecewise-linear interpolation between the points) ≈ 0.5 MB.
func WebSearch() *CDF {
	return NewCDF("web-search", []CDFPoint{
		{6 * 1024, 0.15}, {13 * 1024, 0.3}, {19 * 1024, 0.45},
		{33 * 1024, 0.6}, {53 * 1024, 0.7}, {133 * 1024, 0.8},
		{667 * 1024, 0.9}, {1397 * 1024, 0.95}, {6998 * 1024, 0.98},
		{20 << 20, 1},
	})
}

// scaled shrinks/stretches another distribution by a constant factor.
type scaled struct {
	d SizeDist
	f float64
}

// ScaleSizes multiplies every draw of d by factor (minimum 1 byte) —
// the standard scale knob for keeping a heavy-tailed catalogue shape
// while bounding simulation cost (the registered sweeps use
// ScaleSizes(WebSearch(), 1.0/64)).
func ScaleSizes(d SizeDist, factor float64) SizeDist {
	if factor <= 0 {
		panic("loadgen: ScaleSizes needs factor > 0")
	}
	return scaled{d: d, f: factor}
}

func (s scaled) Name() string  { return fmt.Sprintf("%s/x%g", s.d.Name(), s.f) }
func (s scaled) Mean() float64 { return s.d.Mean() * s.f }
func (s scaled) Sample(r *RNG) int {
	b := int(float64(s.d.Sample(r)) * s.f)
	if b < 1 {
		b = 1
	}
	return b
}
