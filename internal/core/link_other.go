//go:build !unix

package core

import "os"

// soleLink cannot read a link count here, so AtomicWriteFileStat never
// rewrites a spare in place and always stages in a fresh file.
func soleLink(os.FileInfo) bool { return false }
