package tcapp

import (
	"fmt"

	"twochains/internal/core"
)

// The histo app: a byte-histogram with a server-side reduce — the
// map/reduce shape of an aggregation service, where both the bucketing
// function and the reduction travel as injected code. Two elements:
//
//	jam_hist_add(payload):      bucket every payload byte; returns the
//	                            node's running byte total.
//	jam_hist_sum(start, n):     weighted partial reduce sum(b * count[b])
//	                            over a wrapping bucket window.
//
// Server-side state (ried_histo): hist_buckets (256 quads) and
// hist_total (running byte count, initialized to 0).

const histBuckets = 256

const histAddSrc = `
// jam_hist_add: bucket each payload byte; returns the running total of
// bytes this node has histogrammed.
extern long hist_buckets[];
extern long hist_total[];

long jam_hist_add(long* args, byte* usr, long len) {
    long i = 0;
    while (i < len) {
        long b = usr[i];
        hist_buckets[b] = hist_buckets[b] + 1;
        i = i + 1;
    }
    hist_total[0] = hist_total[0] + len;
    return hist_total[0];
}
`

const histSumSrc = `
// jam_hist_sum: weighted partial reduce over a wrapping window of
// (args[1] & 255) + 1 buckets starting at args[0] & 255.
extern long hist_buckets[];

long jam_hist_sum(long* args, byte* usr, long len) {
    long i = args[0] & 255;
    long n = (args[1] & 255) + 1;
    long sum = 0;
    while (n > 0) {
        sum = sum + (hist_buckets[i] * i);
        i = (i + 1) & 255;
        n = n - 1;
    }
    return sum;
}
`

// histoData declares the app's server-side state on b (shared between
// the full build and the rieds-only swap build).
func histoData(b *Builder) *Builder {
	return b.
		Data("hist_buckets", histBuckets*8).
		DataWords("hist_total", 0)
}

// BuildHisto assembles the histo package through the Builder.
func BuildHisto() (*core.Package, error) {
	return histoData(New("histo")).
		Func("hist_add", histAddSrc).
		Func("hist_sum", histSumSrc).
		Build()
}

// HistoOracle is the native model of one node's histo state.
type HistoOracle struct {
	buckets [histBuckets]uint64
	total   uint64
}

// NewHistoOracle returns an empty histogram model.
func NewHistoOracle() *HistoOracle { return &HistoOracle{} }

// Apply mirrors one histo handler execution.
func (o *HistoOracle) Apply(elem string, args [2]uint64, usr []byte) (uint64, error) {
	switch elem {
	case "jam_hist_add":
		for _, b := range usr {
			o.buckets[b]++
		}
		o.total += uint64(len(usr))
		return o.total, nil
	case "jam_hist_sum":
		i := args[0] & (histBuckets - 1)
		n := (args[1] & 255) + 1
		var sum uint64
		for ; n > 0; n-- {
			sum += o.buckets[i] * i
			i = (i + 1) & (histBuckets - 1)
		}
		return sum, nil
	}
	return 0, fmt.Errorf("tcapp: histo oracle does not model %q", elem)
}
