// Package serve exercises the typederr analyzer inside one of its scoped
// package paths: in-function errors.New and unwrapped fmt.Errorf are
// diagnosed; package-level sentinels, %w wrapping, and dynamic formats are
// not.
package serve

import (
	"errors"
	"fmt"
)

// ErrOverload is a package-level sentinel: the sanctioned errors.New form.
var ErrOverload = errors.New("overloaded")

func badNew() error {
	return errors.New("transient hiccup") // want `errors.New inside badNew`
}

func badErrorf(n int) error {
	return fmt.Errorf("bad size %d", n) // want `fmt.Errorf without %w`
}

func goodWrapCause(err error) error {
	return fmt.Errorf("serve: request failed: %w", err)
}

func goodWrapSentinel() error {
	return fmt.Errorf("serve: queue full: %w", ErrOverload)
}

func goodDynamicFormat(format string, n int) error {
	return fmt.Errorf(format, n) // non-constant format: nothing to check
}
