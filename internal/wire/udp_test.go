package wire

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dharma/internal/simnet"
)

func TestUDPRoundTrip(t *testing.T) {
	srv, err := ListenUDP("127.0.0.1:0", simnet.HandlerFunc(
		func(_ context.Context, from simnet.Addr, p []byte) ([]byte, error) {
			return append([]byte("ok:"), p...), nil
		}), UDPOptions{Timeout: time.Second})
	if err != nil {
		t.Fatalf("ListenUDP server: %v", err)
	}
	defer srv.Close()

	cli, err := ListenUDP("127.0.0.1:0", simnet.HandlerFunc(
		func(context.Context, simnet.Addr, []byte) ([]byte, error) { return nil, nil }), UDPOptions{Timeout: time.Second})
	if err != nil {
		t.Fatalf("ListenUDP client: %v", err)
	}
	defer cli.Close()

	resp, err := cli.Call(context.Background(), srv.Addr(), []byte("ping"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if !bytes.Equal(resp, []byte("ok:ping")) {
		t.Fatalf("resp = %q", resp)
	}
}

func TestUDPTimeoutOnDeadPeer(t *testing.T) {
	cli, err := ListenUDP("127.0.0.1:0", simnet.HandlerFunc(
		func(context.Context, simnet.Addr, []byte) ([]byte, error) { return nil, nil }), UDPOptions{Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	defer cli.Close()

	// Port 1 on loopback has no listener; the datagram vanishes.
	if _, err := cli.Call(context.Background(), "127.0.0.1:1", []byte("x")); !errors.Is(err, simnet.ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
}

func TestUDPHandlerErrorTimesOut(t *testing.T) {
	srv, err := ListenUDP("127.0.0.1:0", simnet.HandlerFunc(
		func(context.Context, simnet.Addr, []byte) ([]byte, error) {
			return nil, errors.New("refuse")
		}), UDPOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := ListenUDP("127.0.0.1:0", simnet.HandlerFunc(
		func(context.Context, simnet.Addr, []byte) ([]byte, error) { return nil, nil }), UDPOptions{Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if _, err := cli.Call(context.Background(), srv.Addr(), []byte("x")); !errors.Is(err, simnet.ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
}

func TestUDPConcurrentCalls(t *testing.T) {
	srv, err := ListenUDP("127.0.0.1:0", simnet.HandlerFunc(
		func(_ context.Context, from simnet.Addr, p []byte) ([]byte, error) {
			return append([]byte(nil), p...), nil // echo
		}), UDPOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := ListenUDP("127.0.0.1:0", simnet.HandlerFunc(
		func(context.Context, simnet.Addr, []byte) ([]byte, error) { return nil, nil }), UDPOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				msg := []byte{byte(g), byte(i)}
				resp, err := cli.Call(context.Background(), srv.Addr(), msg)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(resp, msg) {
					errs <- errors.New("response mismatch")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestUDPCloseUnblocksCallers(t *testing.T) {
	cli, err := ListenUDP("127.0.0.1:0", simnet.HandlerFunc(
		func(context.Context, simnet.Addr, []byte) ([]byte, error) { return nil, nil }), UDPOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := cli.Call(context.Background(), "127.0.0.1:1", []byte("x"))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := cli.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, simnet.ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Call did not unblock after Close")
	}
	if _, err := cli.Call(context.Background(), "127.0.0.1:1", nil); !errors.Is(err, simnet.ErrClosed) {
		t.Fatalf("Call after Close: want ErrClosed, got %v", err)
	}
	if err := cli.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestUDPMessageLevelRoundTrip(t *testing.T) {
	// End-to-end: a wire.Message travels over UDP and decodes intact.
	srv, err := ListenUDP("127.0.0.1:0", simnet.HandlerFunc(
		func(_ context.Context, from simnet.Addr, p []byte) ([]byte, error) {
			req, err := Decode(p)
			if err != nil {
				return nil, err
			}
			resp := &Message{Kind: KindPong, Target: req.Target}
			return Encode(resp), nil
		}), UDPOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := ListenUDP("127.0.0.1:0", simnet.HandlerFunc(
		func(context.Context, simnet.Addr, []byte) ([]byte, error) { return nil, nil }), UDPOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	req := sampleMessage()
	raw, err := cli.Call(context.Background(), srv.Addr(), Encode(req))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	resp, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if resp.Kind != KindPong || resp.Target != req.Target {
		t.Fatalf("resp = %+v", resp)
	}
}
