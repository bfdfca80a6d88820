package debughttp

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
)

// RequestsDoc is the /debug/requests JSON document.
type RequestsDoc struct {
	Count    int                `json:"count"`
	Recorded int64              `json:"recorded"`
	Dumps    int64              `json:"dumps"`
	Requests []reqtrace.Summary `json:"requests"`
}

// RequestsHandler serves the flight recorder's debug API:
//
//	GET /debug/requests        recent requests, per-phase breakdown
//	                           (?limit=N; ?format=text for a table)
//	GET /debug/requests/{id}   full span tree of one request (404 when
//	                           it has rotated out of the ring)
func RequestsHandler(rec *reqtrace.Recorder) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/requests", func(w http.ResponseWriter, req *http.Request) {
		limit := 0
		if lv := req.URL.Query().Get("limit"); lv != "" {
			n, err := strconv.Atoi(lv)
			if err != nil || n < 0 {
				writeJSON(w, http.StatusBadRequest, map[string]string{"error": "limit must be a non-negative integer"})
				return
			}
			limit = n
		}
		sums := rec.Recent(limit)
		if req.URL.Query().Get("format") == "text" || wantsText(req) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			writeSummaryTable(w, sums)
			return
		}
		writeJSON(w, http.StatusOK, RequestsDoc{
			Count: len(sums), Recorded: rec.Recorded(), Dumps: rec.Dumps(), Requests: sums,
		})
	})
	mux.HandleFunc("GET /debug/requests/{id}", func(w http.ResponseWriter, req *http.Request) {
		d, ok := rec.Get(strings.ToLower(req.PathValue("id")))
		if !ok {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown or rotated-out request trace"})
			return
		}
		writeJSON(w, http.StatusOK, d)
	})
	return mux
}

// wantsText reports whether the request prefers a human table: an
// Accept header naming text/plain without application/json.
func wantsText(req *http.Request) bool {
	a := req.Header.Get("Accept")
	return strings.Contains(a, "text/plain") && !strings.Contains(a, "application/json")
}

// writeSummaryTable renders the recent-request table, one row per
// request with the dominant phases inline.
func writeSummaryTable(w http.ResponseWriter, sums []reqtrace.Summary) {
	fmt.Fprintf(w, "%-32s  %-6s %-22s %6s %10s  %s\n",
		"trace", "status", "route", "spans", "dur_ms", "phases")
	for _, s := range sums {
		names := make([]string, 0, len(s.Phases))
		for n := range s.Phases {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return s.Phases[names[i]] > s.Phases[names[j]] })
		var b strings.Builder
		for i, n := range names {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%s=%.2fms", n, s.Phases[n])
		}
		status := strconv.Itoa(s.Status)
		if s.Error != "" {
			status += "!"
		}
		fmt.Fprintf(w, "%-32s  %-6s %-22s %6d %10.2f  %s\n",
			s.Trace, status, s.Method+" "+s.Route, s.Spans, s.DurMS, b.String())
	}
}
