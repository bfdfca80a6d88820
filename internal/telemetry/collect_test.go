package telemetry

import (
	"strings"
	"testing"
)

func TestOnCollectRunsBeforeExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hook_fired_total", "test", nil)
	calls := 0
	reg.OnCollect("test", func() { calls++; c.Inc() })
	reg.OnCollect("test", func() { t.Fatal("duplicate hook must not replace the first") })

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("hook ran %d times, want 1", calls)
	}
	if !strings.Contains(b.String(), "hook_fired_total 1") {
		t.Fatalf("exposition missing hook-updated value:\n%s", b.String())
	}
	b.Reset()
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "hook_fired_total 2") {
		t.Fatalf("hook not re-run on second exposition:\n%s", b.String())
	}
}
