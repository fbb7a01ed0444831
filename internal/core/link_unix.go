//go:build unix

package core

import (
	"os"
	"syscall"
)

// soleLink reports whether fi's file has exactly one directory entry.
func soleLink(fi os.FileInfo) bool {
	st, ok := fi.Sys().(*syscall.Stat_t)
	return ok && st.Nlink == 1
}
