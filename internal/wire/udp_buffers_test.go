package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"dharma/internal/simnet"
)

// ownedPayload fills a free-list buffer with client c's round-r request
// of size bytes: c, r and size in the first four bytes, then a pattern
// no other request shares.
func ownedPayload(c, r, size int) []byte {
	p := append(Borrow(size), byte(c), byte(r))
	p = binary.BigEndian.AppendUint16(p, uint16(size))
	for i := 4; i < size; i++ {
		p = append(p, byte(c*61+r*7+i*13))
	}
	return p
}

// checkOwned reports whether p is intact: a request ownedPayload built,
// or (inverted) the reply to one.
func checkOwned(p []byte, inverted bool) error {
	var x byte
	if inverted {
		x = 0xff
	}
	at := func(i int) int { return int(p[i] ^ x) }
	if len(p) < 4 {
		return fmt.Errorf("%d-byte payload", len(p))
	}
	c, r, size := at(0), at(1), at(2)<<8|at(3)
	if size != len(p) {
		return fmt.Errorf("client %d round %d: %d bytes, header says %d", c, r, len(p), size)
	}
	for i := 4; i < size; i++ {
		if byte(at(i)) != byte(c*61+r*7+i*13) {
			return fmt.Errorf("client %d round %d: byte %d of %d is %#x", c, r, i, size, at(i))
		}
	}
	return nil
}

// TestUDPExchangeBuffersHaveOneOwner is the real-UDP twin of kademlia's
// TestExchangeBuffersHaveOneOwner. Requests, datagrams, payload copies
// and replies all cycle through the one free list, so a buffer handed
// back while another owner still used it would show up as a corrupted
// request in the handler or a corrupted reply in a client. Four clients
// send requests of 16–4,000 bytes; every fourth call gives up after
// 200µs; the handler checks every request and every reply is checked.
// Sealed clients hold a session each: calls overlapping on one session
// can fall outside its 64-wide replay window, which is not what this
// test is about.
func TestUDPExchangeBuffersHaveOneOwner(t *testing.T) {
	auth, ids := newTestCA(t, 5)
	const clients, rounds = 4, 40
	for _, sealed := range []bool{false, true} {
		name := "plain"
		if sealed {
			name = "sealed"
		}
		t.Run(name, func(t *testing.T) {
			handler := simnet.HandlerFunc(func(_ context.Context, _ simnet.Addr, p []byte) ([]byte, error) {
				if err := checkOwned(p, false); err != nil {
					t.Errorf("handler got a corrupted request: %v", err)
					return nil, err
				}
				out := Borrow(len(p)) // the transport recycles the reply, as it does a node's
				for _, b := range p {
					out = append(out, ^b)
				}
				return out, nil
			})
			var srv *UDPTransport
			cli := make([]*UDPTransport, clients)
			if sealed {
				srv = newSecuredTransport(t, auth, ids[0], handler)
				for c := range cli {
					cli[c] = newSecuredTransport(t, auth, ids[1+c], nil)
				}
			} else {
				var err error
				if srv, err = ListenUDP("127.0.0.1:0", handler, UDPOptions{Timeout: time.Second}); err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				shared, err := ListenUDP("127.0.0.1:0", nil, UDPOptions{Timeout: time.Second})
				if err != nil {
					t.Fatal(err)
				}
				defer shared.Close()
				for c := range cli {
					cli[c] = shared
				}
			}
			var wg sync.WaitGroup
			for c := range clients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := range rounds {
						ctx, cancel := context.Background(), context.CancelFunc(func() {})
						if r%4 == 0 {
							ctx, cancel = context.WithTimeout(ctx, 200*time.Microsecond)
						}
						req := ownedPayload(c, r, 16+(r*397+c*131)%3985)
						resp, err := cli[c].Call(ctx, srv.Addr(), req)
						cancel()
						Recycle(req) // the transport keeps no reference once Call returns
						if err != nil {
							if r%4 == 0 && errors.Is(err, context.DeadlineExceeded) {
								continue
							}
							t.Errorf("client %d round %d: %v", c, r, err)
							return
						}
						if err := checkOwned(resp, true); err != nil || resp[0] != ^byte(c) || resp[1] != ^byte(r) {
							t.Errorf("client %d round %d: corrupted or foreign reply: %v", c, r, err)
							return
						}
						Recycle(resp)
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestUDPLateReplyMissesNextExchange: a reply that arrives after its
// exchange ended is dropped, and never reaches the exchange that reuses
// the slot.
func TestUDPLateReplyMissesNextExchange(t *testing.T) {
	release := make(chan struct{})
	srv, err := ListenUDP("127.0.0.1:0", simnet.HandlerFunc(
		func(_ context.Context, _ simnet.Addr, p []byte) ([]byte, error) {
			if string(p) == "slow" {
				<-release
				return []byte("late"), nil
			}
			close(release)                    // the late reply goes out now…
			time.Sleep(50 * time.Millisecond) // …and lands while the next exchange waits
			return []byte("next"), nil
		}), UDPOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := ListenUDP("127.0.0.1:0", nil, UDPOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	_, err = cli.Call(ctx, srv.Addr(), []byte("slow"))
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow call = %v, want DeadlineExceeded", err)
	}
	lateID := cli.nextID.Load()
	if len(cli.idle) != 1 {
		t.Fatalf("%d idle slots after one exchange, want 1", len(cli.idle))
	}
	reused := cli.idle[0]

	resp, err := cli.Call(context.Background(), srv.Addr(), []byte("fast"))
	if err != nil || string(resp) != "next" {
		t.Fatalf("next call = %q, %v; want \"next\"", resp, err)
	}
	if len(cli.idle) != 1 || cli.idle[0] != reused {
		t.Fatal("the next exchange did not reuse the ended exchange's slot")
	}
	if cli.route(frameResponse, lateID, Borrow(1)) || len(reused.ch) != 0 {
		t.Fatal("a reply under an ended exchange's id was routed to its slot")
	}
}

// TestUDPFromIsUDPAddrString: the from address a handler sees is the
// source as UDPAddr.String() formats it — an IPv4 source reaching a
// dual-stack socket included, which arrives 4-in-6 mapped.
func TestUDPFromIsUDPAddrString(t *testing.T) {
	for _, tc := range []struct{ srvBind, cliBind string }{
		{"127.0.0.1:0", "127.0.0.1:0"},
		{":0", "127.0.0.1:0"},
		{":0", "[::1]:0"},
		{"[::1]:0", "[::1]:0"},
	} {
		froms := make(chan simnet.Addr, 1)
		srv, err := ListenUDP(tc.srvBind, simnet.HandlerFunc(
			func(_ context.Context, from simnet.Addr, _ []byte) ([]byte, error) {
				froms <- from
				return []byte("ok"), nil
			}), UDPOptions{Timeout: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		cli, err := ListenUDP(tc.cliBind, nil, UDPOptions{Timeout: time.Second})
		if err != nil {
			srv.Close()
			t.Fatal(err)
		}
		port := srv.conn.LocalAddr().(*net.UDPAddr).Port
		host := "127.0.0.1"
		if tc.cliBind[0] == '[' {
			host = "::1"
		}
		_, err = cli.Call(context.Background(), simnet.Addr(net.JoinHostPort(host, fmt.Sprint(port))), []byte("x"))
		cli.Close()
		srv.Close()
		if err != nil {
			t.Fatalf("%s → %s: %v", tc.cliBind, tc.srvBind, err)
		}
		if got, want := <-froms, cli.Addr(); got != want {
			t.Errorf("%s → %s: handler saw from %q, want %q", tc.cliBind, tc.srvBind, got, want)
		}
	}
}

// TestUDPCallResolvesHostNames: an address that is not a literal ip:port
// still goes through the resolver.
func TestUDPCallResolvesHostNames(t *testing.T) {
	srv, err := ListenUDP("127.0.0.1:0", simnet.HandlerFunc(
		func(context.Context, simnet.Addr, []byte) ([]byte, error) { return []byte("ok"), nil }),
		UDPOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := ListenUDP("127.0.0.1:0", nil, UDPOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	port := srv.conn.LocalAddr().(*net.UDPAddr).Port
	for _, to := range []string{fmt.Sprintf("localhost:%d", port), fmt.Sprintf(":%d", port)} {
		if resp, err := cli.Call(context.Background(), simnet.Addr(to), []byte("x")); err != nil || string(resp) != "ok" {
			t.Errorf("Call(%q) = %q, %v; want \"ok\"", to, resp, err)
		}
	}
}
