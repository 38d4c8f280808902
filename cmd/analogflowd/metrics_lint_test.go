// Metrics-exposition lint: scrapes /v1/metrics from an httptest server and
// validates the Prometheus text format 0.0.4 contract — HELP/TYPE preambles,
// name and label charsets, parseable sample values, counter monotonicity
// across scrapes — plus the presence of the series the observability plane
// promises (per-backend latency EMA, warm-hit ratios, lane queue depths).
// CI runs the MetricsExposition tests by name as the metrics-lint gate.
package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"analogflow/internal/metrics"
	"analogflow/internal/solve"
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	// sampleRe splits a sample line into name, optional label block, value.
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
	labelRe  = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)
)

// scrapeMetrics fetches /v1/metrics and returns the body plus the parsed
// samples keyed by full series (name + label block).
func scrapeMetrics(t *testing.T, url string) (string, map[string]float64, map[string]string) {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics scrape: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.TextContentType {
		t.Errorf("metrics Content-Type %q, want %q", ct, metrics.TextContentType)
	}
	var sb strings.Builder
	buf := make([]byte, 64<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	body := sb.String()

	samples := map[string]float64{}
	types := map[string]string{} // metric family name -> TYPE
	helped := map[string]bool{}
	for i, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Errorf("line %d: HELP without text: %q", i+1, line)
			}
			helped[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			name, typ := parts[0], parts[1]
			if !metricNameRe.MatchString(name) {
				t.Errorf("line %d: invalid metric name %q", i+1, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Errorf("line %d: unknown TYPE %q", i+1, typ)
			}
			if !helped[name] {
				t.Errorf("line %d: TYPE for %s precedes its HELP", i+1, name)
			}
			if _, dup := types[name]; dup {
				t.Errorf("line %d: duplicate TYPE for %s", i+1, name)
			}
			types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("line %d: unknown comment form: %q", i+1, line)
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d: unparseable sample: %q", i+1, line)
			continue
		}
		name, labels, value := m[1], m[2], m[3]
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if _, ok := types[name]; !ok {
			if _, ok := types[family]; !ok {
				t.Errorf("line %d: sample %s has no TYPE preamble", i+1, name)
			}
		}
		for _, lm := range labelRe.FindAllStringSubmatch(labels, -1) {
			if !labelNameRe.MatchString(lm[1]) || strings.HasPrefix(lm[1], "__") {
				t.Errorf("line %d: invalid label name %q", i+1, lm[1])
			}
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil && value != "+Inf" && value != "-Inf" && value != "NaN" {
			t.Errorf("line %d: unparseable value %q", i+1, value)
		}
		series := name + labels
		if _, dup := samples[series]; dup {
			t.Errorf("line %d: duplicate series %s", i+1, series)
		}
		samples[series] = v
	}
	return body, samples, types
}

// TestMetricsExpositionLint is the CI metrics-lint gate.
func TestMetricsExpositionLint(t *testing.T) {
	svc := solve.NewService(solve.Config{Workers: 2})
	srv := newServer(svc, serverConfig{})
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	// Move the counters: one batch solve and one session chain.
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(fmt.Sprintf(`{"solver":"dinic","problems":[%s,%s]}`, figure5Inline, figure5Inline)))
	if err != nil {
		t.Fatal(err)
	}
	drainBody(resp)
	resp, err = http.Post(ts.URL+"/v1/sessions", "application/json",
		strings.NewReader(fmt.Sprintf(`{"solver":"dinic","problem":%s}`, figure5Inline)))
	if err != nil {
		t.Fatal(err)
	}
	drainBody(resp)

	_, first, types := scrapeMetrics(t, ts.URL)

	// The promised observability series exist.
	for _, want := range []string{
		`analogflow_backend_latency_ema_milliseconds{backend="dinic"}`,
		`analogflow_requests_total`,
		`analogflow_completed_total`,
		`analogflow_warm_hit_ratio{cache="instance"}`,
		`analogflow_warm_hit_ratio{cache="oracle"}`,
		`analogflow_warm_hit_ratio{cache="consensus"}`,
		`analogflow_queue_depth{lane="urgent"}`,
		`analogflow_queue_depth{lane="priority"}`,
		`analogflow_queue_depth{lane="normal"}`,
		`analogflow_workers_effective`,
		`analogflow_workers_busy`,
		`analogflow_in_flight_solves`,
		`analogflow_sessions_live`,
		`analogflow_server_draining`,
		`analogflow_client_disconnects_total`,
		`analogflow_expired_sessions_total`,
		`analogflow_shed_requests_total`,
		`analogflow_solver_panics_total`,
	} {
		if _, ok := first[want]; !ok {
			t.Errorf("promised series %s missing from exposition", want)
		}
	}
	// Histogram families carry bucket/sum/count triplets.
	if types["analogflow_request_duration_seconds"] != "histogram" {
		t.Errorf("analogflow_request_duration_seconds TYPE %q, want histogram", types["analogflow_request_duration_seconds"])
	}
	var haveBucket, haveInf bool
	for series := range first {
		if strings.HasPrefix(series, "analogflow_request_duration_seconds_bucket{") {
			haveBucket = true
			if strings.Contains(series, `le="+Inf"`) {
				haveInf = true
			}
		}
	}
	if !haveBucket || !haveInf {
		t.Errorf("request-duration histogram lacks buckets (+Inf bucket present: %v)", haveInf)
	}

	// Counters are monotone across scrapes, even with traffic in between.
	resp, err = http.Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(fmt.Sprintf(`{"solver":"dinic","problems":[%s]}`, figure5Inline)))
	if err != nil {
		t.Fatal(err)
	}
	drainBody(resp)
	_, second, _ := scrapeMetrics(t, ts.URL)
	for series, before := range first {
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		isCounter := types[name] == "counter" || types[family] == "histogram"
		if !isCounter {
			continue
		}
		after, ok := second[series]
		if !ok {
			t.Errorf("counter series %s disappeared between scrapes", series)
			continue
		}
		if after < before {
			t.Errorf("counter series %s went backwards: %v -> %v", series, before, after)
		}
	}
	if second[`analogflow_requests_total`] <= first[`analogflow_requests_total`] {
		t.Errorf("requests_total did not advance across traffic: %v -> %v",
			first[`analogflow_requests_total`], second[`analogflow_requests_total`])
	}

	// One source: the exported EMA gauge is the /v1/stats reading.
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var fleet struct {
		Backends map[string]solve.BackendWindow `json:"backends"`
	}
	err = json.NewDecoder(resp.Body).Decode(&fleet)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	scraped, ok := second[`analogflow_backend_latency_ema_milliseconds{backend="dinic"}`]
	if !ok || scraped <= 0 {
		t.Fatalf("scraped dinic EMA %v (present %v), want > 0", scraped, ok)
	}
	if got := fleet.Backends["dinic"].EMAms; got != scraped {
		t.Errorf("stats backends.dinic.ema_ms %v != scraped EMA gauge %v", got, scraped)
	}
}

func drainBody(resp *http.Response) {
	buf := make([]byte, 32<<10)
	for {
		if _, err := resp.Body.Read(buf); err != nil {
			break
		}
	}
	resp.Body.Close()
}

// TestStatsEndpointShape pins the /v1/stats fleet aggregate: workers,
// queues, cache, sessions, per-backend latency, and the raw counter dump
// all present and self-consistent.
func TestStatsEndpointShape(t *testing.T) {
	srv := newTestServer(t, 2)
	_, _ = postSolve(t, srv, fmt.Sprintf(`{"solver":"dinic","problems":[%s]}`, figure5Inline))

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Version  string       `json:"version"`
		Uptime   float64      `json:"uptime_seconds"`
		Workers  statsWorkers `json:"workers"`
		Cache    statsCache   `json:"cache"`
		Sessions struct {
			Live int `json:"live"`
		} `json:"sessions"`
		Backends map[string]solve.BackendWindow `json:"backends"`
		Stats    solve.Stats                    `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Version != serverVersion {
		t.Errorf("version %q, want %q", out.Version, serverVersion)
	}
	if out.Workers.Total < 1 || out.Workers.Free != out.Workers.Total-out.Workers.Busy {
		t.Errorf("worker block inconsistent: %+v", out.Workers)
	}
	if out.Workers.Total != 2 || out.Stats.EffectiveWorkers != out.Workers.Total {
		t.Errorf("worker total %d (raw %d), want the configured 2", out.Workers.Total, out.Stats.EffectiveWorkers)
	}
	win, ok := out.Backends["dinic"]
	if !ok {
		t.Fatalf("stats backends %v lack dinic", out.Backends)
	}
	if win.Observations < 1 || win.EMAms < 0 || win.P99ms < win.P50ms {
		t.Errorf("dinic window implausible: %+v", win)
	}
	if out.Stats.Requests < 1 || out.Stats.Completed < 1 {
		t.Errorf("raw counter dump did not move: %+v", out.Stats)
	}
}
