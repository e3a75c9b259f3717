package hrt

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"slicehide/internal/interp"
)

// Membership gossip: the fleet's liveness probes are real wire exchanges
// (OpPing) rather than bare TCP dials, and each probe piggybacks the
// prober's epoch-versioned membership table. The probed replica merges it,
// answers with its own (post-merge) table, and the prober merges that —
// so any epoch bump reaches every live replica within a few probe
// intervals, with no dedicated membership channel. The same op carries
// explicit join/leave verbs for `hiddend -join` and the admin endpoints.

// OpPing is a liveness probe + membership gossip exchange. Like OpRepl it
// sits outside the journal record op range, so a ping can never be
// mistaken for a replayable record.
const OpPing Op = 11

// Gossip verbs, carried in Request.Frag.
const (
	// PingSync merges membership tables: Args[0] is the prober's encoded
	// table ("" for a plain liveness probe), the response Val the probed
	// replica's current encoding.
	PingSync = 0
	// PingJoin asks the receiver to add Args[0] to the membership.
	PingJoin = 1
	// PingLeave asks the receiver to remove Args[0] from the membership.
	PingLeave = 2
)

// GossipHandler is the fleet side of OpPing (implemented by
// cluster.Group). All methods return the receiver's current encoded
// membership table.
type GossipHandler interface {
	// GossipSync merges the encoded remote table (may be "").
	GossipSync(from, remote string) string
	// GossipJoin adds addr to the membership.
	GossipJoin(addr string) (string, error)
	// GossipLeave removes addr from the membership.
	GossipLeave(addr string) (string, error)
}

// serveGossip answers one OpPing exchange; false means the connection
// should be dropped.
func (ts *TCPServer) serveGossip(conn net.Conn, w *bufio.Writer, req Request) bool {
	arg := ""
	if len(req.Args) > 0 && req.Args[0].Kind == interp.KindString {
		arg = req.Args[0].S()
	}
	var resp Response
	if ts.Gossip == nil {
		// Liveness-only ack: a standalone server is alive but has no table.
		resp = Response{}
	} else {
		switch req.Frag {
		case PingSync:
			resp.Val = interp.StrV(ts.Gossip.GossipSync(req.Fn, arg))
		case PingJoin:
			enc, err := ts.Gossip.GossipJoin(arg)
			if err != nil {
				resp.Err = err.Error()
			} else {
				resp.Val = interp.StrV(enc)
			}
		case PingLeave:
			enc, err := ts.Gossip.GossipLeave(arg)
			if err != nil {
				resp.Err = err.Error()
			} else {
				resp.Val = interp.StrV(enc)
			}
		default:
			resp.Err = "hrt: unknown gossip verb"
		}
	}
	if ts.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(ts.WriteTimeout))
	}
	if err := WriteResponse(w, resp); err != nil {
		return false
	}
	return w.Flush() == nil
}

// GossipExchange dials addr and performs one OpPing exchange, returning
// the responder's encoded membership table ("" from a non-fleet server).
// from names the caller (its fleet address); verb is one of the Ping
// verbs; arg the verb's argument. dial opens the connection (net.DialTimeout
// outside tests); the timeout bounds the whole exchange.
func GossipExchange(dial func(network, addr string, timeout time.Duration) (net.Conn, error), addr, from string, verb int, arg string, timeout time.Duration) (string, error) {
	conn, err := dial("tcp", addr, timeout)
	if err != nil {
		return "", err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	w := bufio.NewWriter(conn)
	req := Request{Op: OpPing, Fn: from, Frag: verb, Args: []interp.Value{interp.StrV(arg)}}
	if err := WriteRequest(w, req); err != nil {
		return "", err
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	resp, err := ReadResponse(bufio.NewReader(conn))
	if err != nil {
		return "", err
	}
	if resp.Err != "" {
		return "", fmt.Errorf("gossip %s: %s", addr, resp.Err)
	}
	if resp.Val.Kind == interp.KindString {
		return resp.Val.S(), nil
	}
	return "", nil
}
