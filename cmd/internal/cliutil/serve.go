package cliutil

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Serve runs hs until its listener fails or SIGINT/SIGTERM arrives, then
// drains in-flight requests for up to drain. When the drain overruns,
// abort (if non-nil) cancels the work still running before connections
// are force-closed. It returns nil after a clean drain.
func Serve(tool string, hs *http.Server, drain time.Duration, abort func()) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		// Listener failed outright (bad address, port in use).
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintf(os.Stderr, "%s: draining in-flight requests...\n", tool)
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		if abort != nil {
			abort()
		}
		return errors.Join(fmt.Errorf("drain exceeded %v", drain), hs.Close())
	}
	return nil
}
