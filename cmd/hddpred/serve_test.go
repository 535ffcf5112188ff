package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestServeCLIErrors(t *testing.T) {
	data := writeFixture(t)
	model := filepath.Join(t.TempDir(), "ct.json")
	if err := run([]string{"train", "-data", data, "-model", "ct", "-o", model}); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"serve"},                                // missing -m
		{"serve", "-m", "missing.json"},          // unreadable model
		{"serve", "-m", model, "-policy", "eat"}, // unknown policy
		{"serve", "-m", model, "-shards", "-1"},
		{"serve", "-m", model, "-snapshot-every", "5s"}, // interval without path
		{"serve", "-m", model, "-voters", "0"},
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

// TestServeHTTPTimeouts: the listener serve builds bounds how long a
// client may take to send its headers and how long an idle keep-alive
// connection lives, and leaves body reads and response writes untimed.
func TestServeHTTPTimeouts(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != serveReadHeaderTimeout || srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, serveReadHeaderTimeout)
	}
	if srv.IdleTimeout != serveIdleTimeout || srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", srv.IdleTimeout, serveIdleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Errorf("ReadTimeout/WriteTimeout = %v/%v, want both unset", srv.ReadTimeout, srv.WriteTimeout)
	}
}

// TestServeSmoke boots the full service on a local port, ingests a
// tiny batch over HTTP, then shuts it down with SIGINT and checks the
// final state snapshot landed.
func TestServeSmoke(t *testing.T) {
	data := writeFixture(t)
	model := filepath.Join(t.TempDir(), "ct.json")
	if err := run([]string{"train", "-data", data, "-model", "ct", "-o", model}); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	snap := filepath.Join(t.TempDir(), "state.snap")

	var wg sync.WaitGroup
	var serveErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		serveErr = run([]string{"serve", "-m", model, "-addr", addr, "-shards", "2", "-snapshot", snap})
	}()
	base := "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("service never came up on %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	zeros := strings.Repeat(",0", 22)
	body := fmt.Sprintf(`{"serial":"smoke-1","hour":0,"normalized":[0%s],"raw":[0%s]}`+"\n", zeros, zeros)
	resp, err := http.Post(base+"/ingest", "application/jsonl", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if serveErr != nil {
		t.Fatalf("serve exited with: %v", serveErr)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Errorf("no final snapshot: %v", err)
	}
}
