// Package cli centralizes the exit-code conventions shared by every
// binary in cmd/: 0 for success, 1 for failure, and 130 (128 + SIGINT)
// for a run that ended because it was cancelled — so shell scripts and
// CI can tell "the experiment is wrong" from "the operator hit Ctrl-C".
package cli

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/url"
	"os"
	"strings"
	"time"
)

// Exit codes. ExitInterrupt follows the shell convention of 128 + the
// signal number, SIGINT being 2.
const (
	ExitOK        = 0
	ExitFailure   = 1
	ExitInterrupt = 130
)

// ExitCode classifies err: nil is success, a context cancellation (the
// signal handler's fingerprint) is an interrupt, anything else a
// failure.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return ExitOK
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return ExitInterrupt
	default:
		return ExitFailure
	}
}

// Fatalf prints a formatted failure to stderr and exits ExitFailure —
// for usage and validation errors that never involve a context.
func Fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "error: "+format+"\n", args...)
	os.Exit(ExitFailure)
}

// Flag validation helpers, shared by every binary in cmd/ so a bad
// value fails at startup with a uniform message instead of being
// silently clamped or panicking minutes into a run. Each returns nil
// or an error naming the flag; collect them with FirstError and hand
// the result to Fatalf.

// PositiveInt rejects values < 1 for flags where zero is meaningless
// (-shard, -every, -trees, -max-sessions, ...).
func PositiveInt(name string, v int) error {
	if v < 1 {
		return fmt.Errorf("%s must be positive, got %d", name, v)
	}
	return nil
}

// NonNegativeInt rejects negative values for flags where 0 is a
// documented "use the default" sentinel (-workers meaning GOMAXPROCS).
func NonNegativeInt(name string, v int) error {
	if v < 0 {
		return fmt.Errorf("%s must not be negative, got %d", name, v)
	}
	return nil
}

// PositiveDuration rejects non-positive durations.
func PositiveDuration(name string, v time.Duration) error {
	if v <= 0 {
		return fmt.Errorf("%s must be positive, got %v", name, v)
	}
	return nil
}

// NonNegativeDuration rejects negative durations where 0 means
// "disabled".
func NonNegativeDuration(name string, v time.Duration) error {
	if v < 0 {
		return fmt.Errorf("%s must not be negative, got %v", name, v)
	}
	return nil
}

// Fraction rejects values outside (0, 1] for proportion flags
// (-alpha).
func Fraction(name string, v float64) error {
	if v <= 0 || v > 1 {
		return fmt.Errorf("%s must be in (0, 1], got %g", name, v)
	}
	return nil
}

// ListenAddr validates a bind address of the form host:port (empty
// host and port 0 are fine: "bind anywhere, pick a port").
func ListenAddr(name, addr string) error {
	if addr == "" {
		return fmt.Errorf("%s must not be empty", name)
	}
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return fmt.Errorf("%s %q is not host:port: %v", name, addr, err)
	}
	return nil
}

// RemoteURL validates and normalizes a coordinator address: either a
// host:port or a full http(s) URL. The returned base URL always
// carries a scheme (http by default) and no trailing slash, ready for
// a fleet worker or client to dial.
func RemoteURL(name, raw string) (string, error) {
	if raw == "" {
		return "", fmt.Errorf("%s must not be empty", name)
	}
	s := raw
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	u, err := url.Parse(s)
	if err != nil {
		return "", fmt.Errorf("%s %q: %v", name, raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("%s %q: scheme must be http or https", name, raw)
	}
	if u.Host == "" {
		return "", fmt.Errorf("%s %q has no host", name, raw)
	}
	if _, _, err := net.SplitHostPort(u.Host); err != nil {
		return "", fmt.Errorf("%s %q is not host:port: %v", name, raw, err)
	}
	if u.Path != "" && u.Path != "/" {
		return "", fmt.Errorf("%s %q must not carry a path", name, raw)
	}
	return u.Scheme + "://" + u.Host, nil
}

// FirstError returns the first non-nil error, for validating a flag
// set in one statement.
func FirstError(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
