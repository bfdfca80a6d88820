package telemetry

import (
	"runtime/debug"
	"sync/atomic"
)

// buildVersion is the binary's version string, settable by main
// packages (typically from an ldflags-injected variable) before or
// after metric registration — the build-info gauge reads it lazily at
// collect time.
var buildVersion atomic.Value // string

// SetBuildVersion records the binary's version for the
// mosaic_build_info gauge; "" restores the fallback of BuildVersion.
func SetBuildVersion(v string) { buildVersion.Store(v) }

// BuildVersion returns the version set by SetBuildVersion, falling
// back to the main module's version from build info, then "unknown".
func BuildVersion() string {
	if v, ok := buildVersion.Load().(string); ok && v != "" {
		return v
	}
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "unknown"
}
