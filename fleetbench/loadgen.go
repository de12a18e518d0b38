package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// clock lets tests replace wall time with a fake one.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }
func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// sample is one request's outcome.
type sample struct {
	// late is how long after its scheduled time the request was sent: the
	// generator's own lag plus waiting for a free connection.
	late time.Duration
	// lat runs from the scheduled send to the end of the response, so a
	// stall also counts against the requests queued behind it.
	lat time.Duration
	// end is when the response completed, from the start of the phase.
	end  time.Duration
	body []byte
	err  error
}

// drive sends n requests over conns connections, starting at start. With a
// schedule, request i is due at start+sched[i] (open loop); without one,
// each connection sends its next request as soon as the previous one
// completes (closed loop). Requests are claimed in index order. It returns
// the samples in index order and the phase's wall time.
func drive(clk clock, start time.Time, n int, sched []time.Duration, conns int, send func(i int) ([]byte, error)) ([]sample, time.Duration) {
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				sent := clk.Now()
				due := sent
				if sched != nil {
					due = start.Add(sched[i])
					clk.SleepUntil(due)
					sent = clk.Now()
				}
				body, err := send(i)
				done := clk.Now()
				out[i] = sample{late: sent.Sub(due), lat: done.Sub(due), end: done.Sub(start), body: body, err: err}
			}
		}()
	}
	wg.Wait()
	return out, clk.Now().Sub(start)
}

// httpSender posts pre-encoded bodies to one predict endpoint over at most
// conns keep-alive connections.
type httpSender struct {
	url    string
	client *http.Client
}

func newHTTPSender(baseURL string, conns int) *httpSender {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &httpSender{url: baseURL + "/v1/predict", client: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// post returns the response body of a 200 answer; any other status is an
// error carrying the body.
func (h *httpSender) post(body []byte) ([]byte, error) {
	resp, err := h.client.Post(h.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

func (h *httpSender) close() { h.client.CloseIdleConnections() }

// sendAll adapts a request list to drive.
func (h *httpSender) sendAll(reqs []request) func(i int) ([]byte, error) {
	return func(i int) ([]byte, error) { return h.post(reqs[i].body) }
}
