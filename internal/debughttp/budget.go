package debughttp

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
	"github.com/mosaic-hpc/mosaic/internal/telemetry"
)

// spanFamily is the histogram family a Budget feeds: the self-time of
// each span name in each finished request trace, by route.
const spanFamily = "mosaic_span_seconds"

// afterPrefix marks a name's time after its trace's root span ended —
// work a request left running when it answered — so it has rows of its
// own beside the time the answer waited on.
const afterPrefix = "after:"

// spanBuckets bound a span's self-time: a microsecond walk of a small
// trace up to a batch that waits seconds.
func spanBuckets() []float64 {
	return []float64{
		1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// Budget is the server-side latency budget: every finished request trace
// passed to Observe is split among its spans (reqtrace.Trace.Budget) and
// each span name's self-time observed into
// mosaic_span_seconds{route,name}. It knows nothing of what the spans are.
type Budget struct {
	reg    *telemetry.Registry
	mu     sync.Mutex
	routes map[[2]string]*routeSeries // by method and route
}

// routeSeries holds one route's histograms, found by a scan: a route has
// a dozen span names, and a trace's names are mostly the same strings.
type routeSeries struct {
	label string
	mu    sync.Mutex
	rows  []seriesRow
}

type seriesRow struct {
	name  string
	after bool
	h     *telemetry.Histogram
}

// NewBudget returns a budget feeding reg.
func NewBudget(reg *telemetry.Registry) *Budget {
	return &Budget{reg: reg, routes: make(map[[2]string]*routeSeries)}
}

// Observe feeds one finished trace into the budget: a Trace's OnDone
// hook, beside the flight recorder.
func (b *Budget) Observe(t *reqtrace.Trace) {
	rs := b.route(t.Method(), t.Route())
	t.Budget(func(name string, after bool, self time.Duration) {
		rs.series(b.reg, name, after).Observe(self.Seconds())
	})
}

// route returns the series of one route, registering it the first time.
func (b *Budget) route(method, route string) *routeSeries {
	b.mu.Lock()
	defer b.mu.Unlock()
	rs := b.routes[[2]string{method, route}]
	if rs == nil {
		rs = &routeSeries{label: route}
		if method != "" {
			rs.label = method + " " + route
		}
		b.routes[[2]string{method, route}] = rs
	}
	return rs
}

// series returns the histogram of one name, registering it the first
// time.
func (rs *routeSeries) series(reg *telemetry.Registry, name string, after bool) *telemetry.Histogram {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, r := range rs.rows {
		if r.after == after && r.name == name {
			return r.h
		}
	}
	label := name
	if after {
		label = afterPrefix + name
	}
	h := reg.Histogram(spanFamily,
		"Self-time of each span name in finished request traces, by route (after: time past the root span's end).",
		spanBuckets(), telemetry.Labels{"route": rs.label, "name": label})
	rs.rows = append(rs.rows, seriesRow{name: name, after: after, h: h})
	return h
}

// BudgetRow is one span name's line of a route's budget.
type BudgetRow struct {
	Span  string  `json:"span"`
	Count int64   `json:"count"` // traces the span was in
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
	// Share is the name's part of the route's root time; the rows and
	// the unattributed row add up to 1. An after row's share is of the
	// time every after row adds up to.
	Share float64 `json:"share"`
}

// RouteBudget is one route's budget: the time its answers waited on,
// span by span, then the work its requests left running.
type RouteBudget struct {
	Route    string      `json:"route"`
	Requests int64       `json:"requests"`
	RootMS   float64     `json:"root_ms_mean"`
	Rows     []BudgetRow `json:"rows"`
	After    []BudgetRow `json:"after,omitempty"`
}

// BudgetDoc is the /debug/budget document.
type BudgetDoc struct {
	Routes []RouteBudget `json:"routes"`
}

// readBudget builds the budget document from reg's spanFamily series:
// per route, rows by share, the unattributed row last among the rows.
func readBudget(reg *telemetry.Registry) BudgetDoc {
	byRoute := map[string]*RouteBudget{}
	var order []string
	for _, f := range reg.Export() {
		if f.Name != spanFamily {
			continue
		}
		for _, s := range f.Series {
			route := s.Labels["route"]
			rb := byRoute[route]
			if rb == nil {
				rb = &RouteBudget{Route: route}
				byRoute[route] = rb
				order = append(order, route)
			}
			hs := telemetry.HistogramSnapshot{UpperBounds: s.Bounds, Counts: s.Counts, Sum: s.Sum, Count: s.Count}
			row := BudgetRow{Span: s.Labels["name"], Count: s.Count,
				P50MS: hs.Quantile(0.5) * 1e3, P99MS: hs.Quantile(0.99) * 1e3, Share: s.Sum}
			switch {
			case strings.HasPrefix(row.Span, afterPrefix):
				rb.After = append(rb.After, row)
			case row.Span == reqtrace.Unattributed:
				rb.Requests = row.Count
				rb.Rows = append(rb.Rows, row)
			default:
				rb.Rows = append(rb.Rows, row)
			}
		}
	}
	doc := BudgetDoc{Routes: []RouteBudget{}}
	sort.Strings(order)
	for _, route := range order {
		rb := byRoute[route]
		root := shareOut(rb.Rows)
		shareOut(rb.After)
		if rb.Requests > 0 {
			rb.RootMS = root / float64(rb.Requests) * 1e3
		}
		doc.Routes = append(doc.Routes, *rb)
	}
	return doc
}

// shareOut turns rows holding seconds in Share into shares of their
// total, ordered by share with the unattributed row last, and returns
// the total.
func shareOut(rows []BudgetRow) float64 {
	total := 0.0
	for _, r := range rows {
		total += r.Share
	}
	for i := range rows {
		if total > 0 {
			rows[i].Share /= total
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		ui, uj := rows[i].Span == reqtrace.Unattributed, rows[j].Span == reqtrace.Unattributed
		if ui != uj {
			return uj
		}
		return rows[i].Share > rows[j].Share
	})
	return total
}

// BudgetHandler serves GET /debug/budget from reg: JSON, or with
// ?format=text (or an Accept of text/plain) a table per route.
func BudgetHandler(reg *telemetry.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		doc := readBudget(reg)
		if req.URL.Query().Get("format") != "text" && !wantsText(req) {
			writeJSON(w, http.StatusOK, doc)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, rb := range doc.Routes {
			fmt.Fprintf(w, "%s: %d requests, root %.3f ms on average\n", rb.Route, rb.Requests, rb.RootMS)
			writeBudgetRows(w, rb.Rows)
			if len(rb.After) > 0 {
				fmt.Fprintf(w, "  after the answer:\n")
				writeBudgetRows(w, rb.After)
			}
		}
	})
}

func writeBudgetRows(w http.ResponseWriter, rows []BudgetRow) {
	fmt.Fprintf(w, "  %-28s %8s %10s %10s %6s\n", "span", "count", "p50_ms", "p99_ms", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %8d %10.3f %10.3f %6.3f\n", r.Span, r.Count, r.P50MS, r.P99MS, r.Share)
	}
}
