package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// startServer serves h through newHTTPServer with the given header-read
// timeout (and the same idle timeout) on a loopback listener.
func startServer(t *testing.T, h http.Handler, timeout time.Duration) *httptest.Server {
	t.Helper()
	ts := httptest.NewUnstartedServer(h)
	ts.Config = newHTTPServer(context.Background(), "", h, timeout, timeout)
	ts.Start()
	t.Cleanup(ts.Close)
	return ts
}

// TestStalledHeaderIsClosed opens a connection that sends part of a request
// header and never the rest. The server must close it once the header-read
// timeout passes, well before the client's own deadline.
func TestStalledHeaderIsClosed(t *testing.T) {
	ts := startServer(t, http.NotFoundHandler(), 100*time.Millisecond)
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: uavserve\r\n")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	for {
		_, err := conn.Read(buf)
		if err == nil {
			continue
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("the server kept a stalled header open for 10 s: %v", err)
		}
		return // closed by the server
	}
}

// TestSSEOutlivesHeaderTimeout streams server-sent events for several
// header-read (and idle) timeouts. The stream must deliver every event: the
// server sets no timeout that runs for the whole request.
func TestSSEOutlivesHeaderTimeout(t *testing.T) {
	const timeout = 50 * time.Millisecond
	const events = 8
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		flusher := w.(http.Flusher)
		for i := 0; i < events; i++ {
			fmt.Fprintf(w, "data: %d\n\n", i)
			flusher.Flush()
			select {
			case <-r.Context().Done():
				return
			case <-time.After(timeout):
			}
		}
	})
	ts := startServer(t, h, timeout)
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got := 0
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		if strings.HasPrefix(sc.Text(), "data: ") {
			got++
		}
	}
	if got != events {
		t.Fatalf("the stream delivered %d of %d events over %v", got, events, events*timeout)
	}
}
