package stickyerr_test

import (
	"testing"

	"repro/internal/testutil"
	"repro/internal/vet/stickyerr"
)

func TestStickyErr(t *testing.T) {
	testutil.RunAnalyzer(t, stickyerr.Analyzer, map[string]string{"a.go": `
package stickyerrtest

import (
	"errors"
	"fmt"

	"repro/internal/tuple"
)

// stop is the WIRE.md §B7-conformant shape: a frame error seals the
// scan at the decoded prefix.
func stop(errs []error) error {
	for _, err := range errs {
		if errors.Is(err, tuple.ErrBadFrame) {
			return err
		}
	}
	return nil
}

func directCompare(err error) bool {
	return err == tuple.ErrBadFrame // want ` + "`ErrBadFrame compared with ==`" + `
}

func directCompareNeq(err error) bool {
	return err != tuple.ErrBadFrame // want ` + "`ErrBadFrame compared with !=`" + `
}

func skips(errs []error) {
	for _, err := range errs {
		if errors.Is(err, tuple.ErrBadFrame) {
			continue // want ` + "`continue skips past ErrBadFrame`" + `
		}
	}
}

func fallsThrough(errs []error) int {
	n := 0
	for _, err := range errs {
		if errors.Is(err, tuple.ErrBadFrame) { // want ` + "`falls through to the next iteration`" + `
			n++
		}
	}
	return n
}

func emptyBranch(err error) {
	if errors.Is(err, tuple.ErrBadFrame) { // want ` + "`empty branch ignores ErrBadFrame`" + `
	}
}

func clears(err error) error {
	if errors.Is(err, tuple.ErrBadFrame) {
		err = nil // want ` + "`clearing the error on the ErrBadFrame path`" + `
		return err
	}
	return err
}

func rewraps(err error) error {
	if errors.Is(err, tuple.ErrBadFrame) {
		return fmt.Errorf("decode failed: %v", err) // want ` + "`fmt.Errorf without %w strips the ErrBadFrame identity`" + `
	}
	return err
}

// rewrapKeeping %w preserves the chain and is legal.
func rewrapKeeping(err error) error {
	if errors.Is(err, tuple.ErrBadFrame) {
		return fmt.Errorf("decode failed: %w", err)
	}
	return err
}

func drops(d *tuple.StreamDecoder, b []byte) {
	d.Feed(b, nil, nil) // want ` + "`error result of Feed dropped`" + `
}

func dropsBytes(d *tuple.StreamDecoder, b []byte) {
	d.FeedBytes(b, nil, nil) // want ` + "`error result of FeedBytes dropped`" + `
}

func blanks(d *tuple.StreamDecoder, b []byte) {
	_ = d.Feed(b, nil, nil) // want ` + "`error result of Feed blanked`" + `
}

func keeps(d *tuple.StreamDecoder, b []byte) error {
	return d.Feed(b, nil, nil)
}

func allowedDrop(d *tuple.StreamDecoder, b []byte) {
	d.Feed(b, nil, nil) //gscope:allow stickyerr fixture: decoder discarded right after // allowed ` + "`error result of Feed dropped`" + `
}
`})
}
