// Package fetch extends the CLI fixture module with resource-lifecycle
// defects: one leak per lifecycle check, so -checks subsets and the
// -leaks report have known material to work with.
package fetch

import (
	"net/http"
	"os"
	"time"
)

// ReadMeta opens the metadata file and forgets it on the success path.
func ReadMeta(p string) error {
	f, err := os.Open(p)
	if err != nil {
		return err
	}
	_ = f
	return nil
}

// Probe drops the response body.
func Probe(u string) (int, error) {
	resp, err := http.Get(u)
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// Beat abandons its ticker after one tick.
func Beat() {
	t := time.NewTicker(time.Second)
	<-t.C
}

// Poll defers per iteration on a hot path.
//
//detlint:hotpath -- fixture entry
func Poll(paths []string) error {
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
	}
	return nil
}

// Clean releases everything properly: material for the -leaks report's
// resolved-outcome rows.
func Clean(p string) error {
	f, err := os.Open(p)
	if err != nil {
		return err
	}
	defer f.Close()
	t := time.NewTimer(time.Second)
	<-t.C
	return nil
}
