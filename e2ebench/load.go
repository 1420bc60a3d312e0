package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// loadGen sends /v1/check requests open-loop: request k is due at
// start + k/rate whether or not earlier ones have been answered, and its
// latency is measured from that due time, so a stall also charges the
// requests it delays. With rate 0 it sends closed-loop instead: each
// client sends its next request as soon as the last one is answered, and
// latency is measured from the send. At most maxClients() goroutines send,
// each over its own keep-alive connection.
type loadGen struct {
	url     string
	queries []query
	rate    float64
	// count stops the schedule after this many requests; 0 runs until stop.
	count int
	// elapsed is the time from start to the last answer, set by wait.
	elapsed time.Duration

	client *http.Client
	next   atomic.Int64
	stop   chan struct{}
	wg     sync.WaitGroup
	start  time.Time
	// per-client results, each in the order that client sent its requests
	results [][]reqResult
}

type reqResult struct {
	k       int64         // schedule slot; selects the query
	latency time.Duration // from the due time to the full answer
	late    time.Duration // from the due time to the send
	status  int
	body    []byte
	err     error
}

// maxClients is the number of client goroutines and connections: the
// machine's CPU count, at most 2, so the load generator never needs more
// threads than the reference machine has.
func maxClients() int {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	return n
}

func startLoad(addr string, queries []query, rate float64, count int) *loadGen {
	n := maxClients()
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
	}
	l := &loadGen{
		url:     "http://" + addr + "/v1/check",
		queries: queries,
		rate:    rate,
		count:   count,
		client:  &http.Client{Transport: tr, Timeout: 30 * time.Second},
		stop:    make(chan struct{}),
		start:   time.Now(),
		results: make([][]reqResult, n),
	}
	for c := 0; c < n; c++ {
		l.wg.Add(1)
		go l.run(c)
	}
	return l
}

func (l *loadGen) run(c int) {
	defer l.wg.Done()
	var interval float64
	if l.rate > 0 {
		interval = float64(time.Second) / l.rate
	}
	for {
		k := l.next.Add(1) - 1
		if l.count > 0 && k >= int64(l.count) {
			return
		}
		due := l.start.Add(time.Duration(float64(k) * interval))
		if l.rate == 0 {
			due = time.Now()
		}
		if d := time.Until(due); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-l.stop:
				t.Stop()
				return
			case <-t.C:
			}
		} else {
			select {
			case <-l.stop:
				return
			default:
			}
		}
		r := reqResult{k: k, late: time.Since(due)}
		q := l.queries[k%int64(len(l.queries))]
		resp, err := l.client.Post(l.url, "application/json", bytes.NewReader(q.body))
		if err == nil {
			r.status = resp.StatusCode
			r.body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		r.err = err
		r.latency = time.Since(due)
		l.results[c] = append(l.results[c], r)
	}
}

// wait returns once every client has stopped — for a counted schedule,
// once it has been sent in full — and closes the connections.
func (l *loadGen) wait() {
	l.wg.Wait()
	l.elapsed = time.Since(l.start)
	l.client.CloseIdleConnections()
}

// halt stops an open-ended schedule and waits for in-flight requests.
func (l *loadGen) halt() {
	close(l.stop)
	l.wait()
}
