package main_test

import (
	"errors"
	"os/exec"
	"strings"
	"testing"
)

// TestNoOrphanPackages fails when a package under internal/ is linked into
// none of the binaries and is not reached through the pkg/oic facade: code
// that only its own tests exercise.
func TestNoOrphanPackages(t *testing.T) {
	list := func(args ...string) []string {
		t.Helper()
		out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
		if err != nil {
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				t.Fatalf("go list %s: %v\n%s", strings.Join(args, " "), err, ee.Stderr)
			}
			t.Fatalf("go list %s: %v", strings.Join(args, " "), err)
		}
		return strings.Fields(string(out))
	}
	reached := map[string]bool{}
	for _, p := range list("-deps", "./cmd/...", "./pkg/oic") {
		reached[p] = true
	}
	for _, p := range list("./internal/...") {
		if !reached[p] {
			t.Errorf("%s is imported by no binary under cmd/ and not by pkg/oic", p)
		}
	}
}
