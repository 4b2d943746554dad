package wire

import (
	"context"
	"testing"
	"time"

	"dharma/internal/admission"
	"dharma/internal/simnet"
)

// TestUDPBusyReplyIsFast: with the single work-queue slot held by a
// stuck handler, the next request must get an explicit KindBusy reply
// almost immediately — not sit out the client's full retry timeout the
// way silence would.
func TestUDPBusyReplyIsFast(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv, err := ListenUDP("127.0.0.1:0", simnet.HandlerFunc(
		func(_ context.Context, _ simnet.Addr, p []byte) ([]byte, error) {
			entered <- struct{}{}
			<-gate
			return p, nil
		}), UDPOptions{Timeout: 5 * time.Second, Admission: admission.Config{QueueDepth: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(gate)

	cli, err := ListenUDP("127.0.0.1:0", simnet.HandlerFunc(
		func(context.Context, simnet.Addr, []byte) ([]byte, error) { return nil, nil }), UDPOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		cli.Call(context.Background(), srv.Addr(), Encode(&Message{Kind: KindPing})) //nolint:errcheck
	}()
	<-entered // slot held

	start := time.Now()
	raw, err := cli.Call(context.Background(), srv.Addr(), Encode(&Message{Kind: KindPing}))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("second call failed at transport level: %v", err)
	}
	resp, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode busy reply: %v", err)
	}
	if resp.Kind != KindBusy {
		t.Fatalf("reply kind = %v, want BUSY", resp.Kind)
	}
	if elapsed > time.Second {
		t.Fatalf("busy reply took %v; rejection must be near-instant, not a timeout", elapsed)
	}
	if got := srv.AdmissionStats().Rejected(); got != 1 {
		t.Fatalf("AdmissionStats().Rejected() = %d, want 1", got)
	}
	if st := srv.AdmissionStats(); st.RejectedQueue != 1 {
		t.Fatalf("AdmissionStats = %+v, want one queue rejection", st)
	}

	gate <- struct{}{} // release the stuck handler
	<-firstDone
}
