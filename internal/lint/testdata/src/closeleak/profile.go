package closeleak

import "repro/internal/profiling"

// profileLeak never stops the CPU profile, so its file stays open.
func profileLeak(p string) error {
	stop, err := profiling.StartCPU(p) // want `profile stop function stop from profiling\.StartCPU may not be released on every path \(want a call to the stop function\)`
	if err != nil {
		return err
	}
	_ = stop
	return nil
}

// profileDeferred stops the profile on every path: clean.
func profileDeferred(p string) error {
	stop, err := profiling.StartCPU(p)
	if err != nil {
		return err
	}
	defer stop()
	return nil
}
