package simnet

import (
	"context"
	"errors"
	"fmt"

	"dharma/internal/admission"
)

// Server is the serving chain of one endpoint, on either transport: the
// one place where a served request is admitted and its outcome judged.
// A transport calls Admit for each inbound request and, once admitted,
// Serve, or Release when its own session stage ends the request first.
//
// The chain's verdicts, the errors Admit and Serve return:
//   - ErrBusy: the admission gate is full, or the handler shed the
//     request with an error wrapping ErrBusy.
//   - ErrTooLarge: the handler's error wraps ErrTooLarge, or its reply
//     is over the transport's largest reply payload.
//   - ErrTimeout: any other handler error. It stands for silence, which
//     is all a caller over UDP would get.
type Server struct {
	handler  Handler
	ctrl     *admission.Controller
	maxReply int // largest reply payload in bytes; 0 = unlimited
}

// NewServer builds the chain around h, with an admission gate
// configured by cfg, for a transport whose replies carry at most
// maxReply payload bytes (0 = unlimited).
func NewServer(h Handler, cfg admission.Config, maxReply int) *Server {
	return &Server{handler: h, ctrl: admission.New(cfg), maxReply: maxReply}
}

// Admit takes a slot in the admission gate for a request from `from`,
// or returns ErrBusy. An admitted request holds its slot until Serve
// or Release returns it.
func (s *Server) Admit(from Addr) error { return s.ctrl.Enter(string(from)) }

// Release returns the slot of an admitted request that is not served.
func (s *Server) Release() { s.ctrl.Leave() }

// Serve runs the handler on an admitted request, returns its slot, and
// returns the reply or the chain's verdict.
func (s *Server) Serve(ctx context.Context, from Addr, payload []byte) ([]byte, error) {
	defer s.ctrl.Leave()
	resp, err := s.handler.HandleRPC(ctx, from, payload)
	switch {
	case err == nil && s.maxReply > 0 && len(resp) > s.maxReply:
		return nil, fmt.Errorf("%w: reply %d > %d", ErrTooLarge, len(resp), s.maxReply)
	case err == nil:
		return resp, nil
	case errors.Is(err, ErrBusy):
		return nil, ErrBusy
	case errors.Is(err, ErrTooLarge):
		return nil, ErrTooLarge
	}
	return nil, ErrTimeout
}

// AdmissionStats reports the chain's admission accounting.
func (s *Server) AdmissionStats() admission.Stats { return s.ctrl.Stats() }
