package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed front-door request.
type sample struct {
	req   int           // index into plan.Requests
	end   time.Duration // completion time since the window opened
	lat   time.Duration // send to last response byte read
	rows  int
	bytes int
	err   string // non-empty when the response itself was wrong
}

// loadClients is the closed-loop client count: a curator waits for each
// view before asking for the next, and two such users are what this class
// of machine can serve from one process.
func loadClients() int { return min(runtime.NumCPU(), 2) }

// tsvCounter consumes an export body, keeping only what validation needs.
type tsvCounter struct {
	lines, bytes int
	header       []byte
	inHeader     bool
}

func (c *tsvCounter) Write(p []byte) (int, error) {
	c.bytes += len(p)
	c.lines += bytes.Count(p, []byte{'\n'})
	if c.inHeader {
		if i := bytes.IndexByte(p, '\n'); i >= 0 {
			c.header = append(c.header, p[:i]...)
			c.inHeader = false
		} else {
			c.header = append(c.header, p...)
		}
	}
	return len(p), nil
}

// issue sends request i of the plan and validates what can be validated
// without the reference: status, header width, no error page. buf is the
// caller's reusable body buffer.
func issue(fd *frontDoor, p *plan, i int, buf *bytes.Buffer) sample {
	r := p.Requests[i]
	s := sample{req: i}
	var body io.Reader
	if r.Body != "" {
		body = strings.NewReader(r.Body)
	}
	start := time.Now()
	hr, err := http.NewRequest(r.Method, fd.base+r.URL, body)
	if err != nil {
		s.err = err.Error()
		return s
	}
	if r.Body != "" {
		hr.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	}
	resp, err := fd.client.Do(hr)
	if err != nil {
		s.err = err.Error()
		s.lat = time.Since(start)
		return s
	}
	cols := 0
	if r.Export {
		c := tsvCounter{inHeader: true}
		_, err = io.Copy(&c, resp.Body)
		s.lat = time.Since(start)
		s.rows, s.bytes = c.lines-1, c.bytes
		cols = bytes.Count(c.header, []byte{'\t'}) + 1
	} else {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		s.lat = time.Since(start)
		page := buf.Bytes()
		s.rows, s.bytes = bytes.Count(page, []byte("<tr>"))-1, len(page)
		cols = bytes.Count(page, []byte("<th>"))
		if bytes.Contains(page, []byte(`color:red`)) {
			s.err = "error page"
		}
	}
	//gmlint:ignore errdrop the body was read to its end (or its read error is reported below); closing adds nothing
	_ = resp.Body.Close()
	switch {
	case err != nil:
		s.err = err.Error()
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Sprintf("HTTP %d", resp.StatusCode)
	case s.err == "" && cols != 1+len(r.Query.Targets):
		s.err = fmt.Sprintf("header has %d columns, want %d", cols, 1+len(r.Query.Targets))
	}
	return s
}

// runClosedLoop drives the plan from `clients` closed-loop clients sharing
// one position in the request list. Requests sent during the warm-up are
// issued but not recorded; the window then stays open for d.
func runClosedLoop(fd *frontDoor, p *plan, clients int, warm, d time.Duration) []sample {
	var next atomic.Int64
	var wg sync.WaitGroup
	out := make([][]sample, clients)
	open := time.Now().Add(warm)
	deadline := open.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				sent := time.Now()
				if !sent.Before(deadline) {
					return
				}
				i := p.Order[int(next.Add(1)-1)%len(p.Order)]
				s := issue(fd, p, i, &buf)
				if sent.Before(open) {
					continue
				}
				s.end = time.Since(open)
				out[c] = append(out[c], s)
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].end < all[j].end })
	return all
}

// validate compares every sample's row count with the reference and
// returns the number of failed or incorrect samples with the first reasons.
func validate(samples []sample, p *plan, ref *reference) (failed int, reasons []string) {
	for _, s := range samples {
		msg := s.err
		if msg == "" {
			want, err := ref.expected(p, s.req)
			switch {
			case err != nil:
				msg = "reference: " + err.Error()
			case want != s.rows:
				msg = fmt.Sprintf("%d rows, reference has %d", s.rows, want)
			}
		}
		if msg != "" {
			failed++
			if len(reasons) < 5 {
				reasons = append(reasons, fmt.Sprintf("request %d: %s", s.req, msg))
			}
		}
	}
	return failed, reasons
}

// ---------------------------------------------------------------------------
// Statistics

func median(v []float64) float64 { return percentile(v, 50) }

// percentile is the nearest-rank percentile of v (which it sorts a copy of).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func latenciesMS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.lat)
	}
	return out
}

// statSlices is how many equal parts of the window the request metrics are
// computed over; each reported value is the median of its per-slice values,
// so a disturbance that lasts a second or two moves one slice, not the
// metric.
const statSlices = 5

// sliceStats returns throughput (correct completions per second) and the
// latency percentiles as medians over the window's slices. A slice's
// throughput runs from the last completion before it to its own last
// completion, which avoids counting whole requests against a fixed edge.
func sliceStats(samples []sample, window time.Duration) (throughput, p50, p95 float64) {
	var rates, p50s, p95s []float64
	prev := time.Duration(0)
	i := 0
	for k := 1; k <= statSlices; k++ {
		edge := window * time.Duration(k) / statSlices
		var lat []float64
		good := 0
		last := prev
		for ; i < len(samples) && samples[i].end <= edge; i++ {
			lat = append(lat, ms(samples[i].lat))
			last = samples[i].end
			if samples[i].err == "" {
				good++
			}
		}
		if len(lat) == 0 || last == prev {
			continue
		}
		rates = append(rates, float64(good)/(last-prev).Seconds())
		p50s = append(p50s, percentile(lat, 50))
		p95s = append(p95s, percentile(lat, 95))
		prev = last
	}
	return median(rates), median(p50s), median(p95s)
}
