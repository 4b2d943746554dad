package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"dharma/internal/admission"
	"dharma/internal/session"
	"dharma/internal/simnet"
)

// verdictRig is one transport serving the verdict handler: call sends a
// request to it, stats reads its serving chain's admission accounting.
type verdictRig struct {
	name  string
	call  func(ctx context.Context, payload []byte) ([]byte, error)
	stats func() admission.Stats
}

// verdictRigs serves h behind a simnet endpoint, whose MTU is the UDP
// reply bound, and behind loopback UDP, open and sealed, each with one
// admission slot.
func verdictRigs(t *testing.T, h simnet.Handler) []verdictRig {
	t.Helper()
	gate := admission.Config{QueueDepth: 1}
	const wait = 300 * time.Millisecond // how long a UDP caller waits out silence

	network := simnet.New(simnet.Config{MTU: maxPayload, Admission: gate})
	simSrv := network.Attach("srv", h)
	simCli := network.Attach("cli", nil)

	listen := func(h simnet.Handler, o UDPOptions) *UDPTransport {
		tr, err := ListenUDP("127.0.0.1:0", h, o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		return tr
	}
	auth, ids := newTestCA(t, 2)
	sessions := func(i int) *session.Manager {
		m, err := session.NewManager(session.Config{Identity: ids[i], CAPub: auth.PublicKey()})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	openSrv := listen(h, UDPOptions{Admission: gate})
	openCli := listen(nil, UDPOptions{Timeout: wait})
	sealedSrv := listen(h, UDPOptions{Admission: gate, Sessions: sessions(0)})
	sealedCli := listen(nil, UDPOptions{Timeout: wait, Sessions: sessions(1)})

	udp := func(name string, cli, srv *UDPTransport) verdictRig {
		return verdictRig{name,
			func(ctx context.Context, p []byte) ([]byte, error) { return cli.Call(ctx, srv.Addr(), p) },
			srv.AdmissionStats}
	}
	return []verdictRig{
		{"simnet",
			func(ctx context.Context, p []byte) ([]byte, error) { return simCli.Call(ctx, "srv", p) },
			simSrv.(interface{ AdmissionStats() admission.Stats }).AdmissionStats},
		udp("udp-open", openCli, openSrv),
		udp("udp-sealed", sealedCli, sealedSrv),
	}
}

// TestChainVerdicts is the serving chain's verdict table: the same
// handler behind a simnet endpoint and behind loopback UDP, open and
// sealed, gives its caller one error class per case, and every case
// leaves nothing in flight at the chain's admission gate.
func TestChainVerdicts(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	h := simnet.HandlerFunc(func(_ context.Context, _ simnet.Addr, p []byte) ([]byte, error) {
		switch string(p) {
		case "hold":
			entered <- struct{}{}
			<-release
		case "busy":
			return nil, fmt.Errorf("handler: %w", ErrBusy)
		case "fail":
			return nil, errors.New("handler failed")
		case "wide":
			return nil, fmt.Errorf("handler: %w", simnet.ErrTooLarge)
		case "big":
			return make([]byte, maxPayload+1), nil
		}
		return []byte("ok"), nil
	})
	cases := []struct {
		name    string
		payload string
		hold    bool // another request holds the one admission slot
		want    error
	}{
		{"normal reply", "ok", false, nil},
		{"admission queue full", "ok", true, ErrBusy},
		{"handler returns ErrBusy", "busy", false, ErrBusy},
		{"any other handler error", "fail", false, simnet.ErrTimeout},
		{"handler returns ErrTooLarge", "wide", false, simnet.ErrTooLarge},
		{"reply over the bound", "big", false, simnet.ErrTooLarge},
	}
	for _, rig := range verdictRigs(t, h) {
		for _, c := range cases {
			ctx := context.Background()
			held := make(chan error, 1)
			if c.hold {
				go func() {
					_, err := rig.call(ctx, []byte("hold"))
					held <- err
				}()
				<-entered
			}
			resp, err := rig.call(ctx, []byte(c.payload))
			if c.hold {
				release <- struct{}{}
				if herr := <-held; herr != nil {
					t.Errorf("%s: %s: the holding request = %v", rig.name, c.name, herr)
				}
			}
			switch {
			case c.want == nil && (err != nil || !bytes.Equal(resp, []byte("ok"))):
				t.Errorf("%s: %s = %q, %v; want the reply", rig.name, c.name, resp, err)
			case c.want != nil && !errors.Is(err, c.want):
				t.Errorf("%s: %s = %v, want %v", rig.name, c.name, err, c.want)
			}
			// A UDP server returns the slot after it wrote the reply.
			for deadline := time.Now().Add(2 * time.Second); rig.stats().InFlight != 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%s: %s left %d request(s) in flight", rig.name, c.name, rig.stats().InFlight)
				}
			}
		}
	}
}

// TestDatagramBound: the largest payload a frame carries travels, sealed
// in a datagram of exactly the 65,507 bytes IPv4 allows, and one byte
// more is refused with ErrTooLarge before it is sent.
func TestDatagramBound(t *testing.T) {
	auth, ids := newTestCA(t, 2)
	h := simnet.HandlerFunc(func(_ context.Context, _ simnet.Addr, p []byte) ([]byte, error) {
		return []byte(fmt.Sprint(len(p))), nil
	})
	srv := newSecuredTransport(t, auth, ids[0], h)
	cli := newSecuredTransport(t, auth, ids[1], h)
	ctx := context.Background()
	resp, err := cli.Call(ctx, srv.Addr(), make([]byte, maxPayload))
	if err != nil || string(resp) != fmt.Sprint(maxPayload) {
		t.Fatalf("payload at the bound = %q, %v; want it delivered", resp, err)
	}
	if _, err := cli.Call(ctx, srv.Addr(), make([]byte, maxPayload+1)); !errors.Is(err, simnet.ErrTooLarge) {
		t.Fatalf("payload one byte over the bound = %v, want ErrTooLarge", err)
	}
}
