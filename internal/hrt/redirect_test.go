package hrt

import (
	"fmt"
	"testing"
	"time"

	"slicehide/internal/core"
)

// redirectHarness starts a server whose router redirects every session to
// a fixed owner while on, and a mux connection to it.
func redirectHarness(t *testing.T) (*TCPServer, *flipRouter, *MuxTransport) {
	t.Helper()
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	router := &flipRouter{owner: "10.0.0.99:7070"}
	router.on.Store(true)
	ts := &TCPServer{Server: NewServer(NewRegistry(res)), Router: router}
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	mt, err := DialMux(MuxConfig{Addr: addr.String(), Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mt.Close() })
	return ts, router, mt
}

// TestRedirectAcknowledgesNothing pins that an owner redirect executes
// nothing and so acknowledges only the session's high-water mark: a
// stamped request comes back with that ack, not its own seq, and a stream
// keeps its in-flight window across a redirected barrier, so the window
// still executes once the session is served.
func TestRedirectAcknowledgesNothing(t *testing.T) {
	ts, router, mt := redirectHarness(t)

	const session = 777
	resp, err := mt.Exchange(Request{Op: OpEnter, Fn: "f", Session: session, Seq: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ParseOwnerRedirect(resp.Err, "") == nil {
		t.Fatalf("exchange answered %q, want an owner redirect", resp.Err)
	}
	if hw := ts.dedup.HighWater(session); resp.Ack != hw || hw != 0 {
		t.Errorf("redirect acknowledged %d, high-water mark is %d; want both 0", resp.Ack, hw)
	}

	s := mt.Stream(0, nil)
	for i := int64(1); i <= 5; i++ {
		if err := s.Send(Request{Op: OpEnter, Fn: "f", Inst: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err == nil || ParseOwnerRedirect(err.Error(), "") == nil {
		t.Fatalf("flush returned %v, want an owner redirect", err)
	}
	if got := s.InFlight(); got != 6 {
		t.Errorf("after a redirected flush %d requests are in flight, want 6 (5 enters and the barrier)", got)
	}
	if got := ts.Server.Stats().Enters; got != 0 {
		t.Errorf("the redirecting server executed %d enters, want 0", got)
	}

	router.on.Store(false)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := ts.Server.Stats().Enters; got != 5 {
		t.Errorf("served after the redirect, the window executed %d enters, want 5", got)
	}
	if got := s.InFlight(); got != 0 {
		t.Errorf("%d requests still in flight after a served flush", got)
	}
}

// TestServerErrorPrefixedOnce pins the client-side text of server-reported
// errors: the server's message already carries the package prefix, and
// the client adds none of its own.
func TestServerErrorPrefixedOnce(t *testing.T) {
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	sess := &Session{T: &Local{Server: NewServer(NewRegistry(res))}}
	if _, err := sess.Enter("nope", 0); err == nil || err.Error() != "hrt: no hidden component for nope" {
		t.Errorf("unknown component: got %v, want %q", err, "hrt: no hidden component for nope")
	}

	_, _, mt := redirectHarness(t)
	s := mt.Stream(0, nil)
	if err := s.Send(Request{Op: OpEnter, Fn: "f", Inst: 1}); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("hrt: session %d owned by fleet peer 10.0.0.99:7070", s.Session())
	if err := s.Flush(); err == nil || err.Error() != want {
		t.Errorf("redirected flush: got %v, want %q", err, want)
	}
}
