package vcd

import (
	"context"
	"net"

	"repro/internal/codec"
	"repro/internal/stream"
)

// newOnlineDecoder builds a fresh decoder for an online session.
func newOnlineDecoder(cfg codec.Config) (*codec.Decoder, error) {
	return codec.NewDecoder(cfg)
}

// dialRTP connects to an RTP-over-TCP endpoint with bounded retry:
// transient refusals (and injected dial faults from plan) back off on
// the session clock and try again, up to the policy's attempt budget.
// It returns the receiver and the number of retries that were needed.
func dialRTP(ctx context.Context, clock stream.Clock, addr string, plan *stream.FaultPlan, pol stream.RetryPolicy) (*stream.RTPReceiver, int, error) {
	var conn net.Conn
	dials := 0
	retries, err := stream.Retry(ctx, clock, pol, func() error {
		dials++
		if plan.FailDial(dials - 1) {
			return errTransientDial
		}
		var derr error
		conn, derr = (&net.Dialer{}).DialContext(ctx, "tcp", addr)
		return derr
	})
	if err != nil {
		return nil, retries, err
	}
	return stream.NewRTPReceiver(conn), retries, nil
}

// errTransientDial is the injected stand-in for a refused connection.
var errTransientDial = &net.OpError{Op: "dial", Net: "tcp", Err: errDialFault{}}

type errDialFault struct{}

func (errDialFault) Error() string { return "injected dial fault" }
func (errDialFault) Timeout() bool { return true }
