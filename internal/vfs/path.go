package vfs

import "strings"

// CleanPath normalizes an absolute or relative slash-separated path:
// collapsing repeated slashes, resolving "." and "..". Relative paths are
// resolved against cwd (which must be absolute). The result is always
// absolute and never ends in a slash (except the root itself). A path that
// is already clean is returned as-is after one allocation-free scan, so
// the common case on the hot resolution path never pays for split/join.
func CleanPath(path, cwd string) string {
	if isCleanPath(path) {
		return path
	}
	if !strings.HasPrefix(path, "/") {
		if cwd == "" {
			cwd = "/"
		}
		path = cwd + "/" + path
	}
	parts := strings.Split(path, "/")
	stack := make([]string, 0, len(parts))
	for _, p := range parts {
		switch p {
		case "", ".":
		case "..":
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
		default:
			stack = append(stack, p)
		}
	}
	return "/" + strings.Join(stack, "/")
}

// isCleanPath reports whether path is absolute with no empty, "." or ".."
// components; a trailing slash is an empty last component, so only the
// root itself may end in one.
func isCleanPath(path string) bool {
	if path == "" || path[0] != '/' {
		return false
	}
	if path == "/" {
		return true
	}
	start := 1 // first byte of the current component
	for i := 1; i <= len(path); i++ {
		if i == len(path) || path[i] == '/' {
			seg := path[start:i]
			if seg == "" || seg == "." || seg == ".." {
				return false
			}
			start = i + 1
		}
	}
	return true
}

// SplitPath returns the parent directory and base name of an absolute,
// cleaned path. SplitPath("/") returns ("/", ".").
func SplitPath(path string) (dir, base string) {
	if path == "/" {
		return "/", "."
	}
	i := strings.LastIndexByte(path, '/')
	dir = path[:i]
	if dir == "" {
		dir = "/"
	}
	return dir, path[i+1:]
}

// BaseName returns the final component of path.
func BaseName(path string) string {
	_, base := SplitPath(CleanPath(path, "/"))
	return base
}

// IsUnder reports whether path is equal to or lexically beneath dir (both
// must be cleaned, absolute paths).
func IsUnder(path, dir string) bool {
	if dir == "/" {
		return true
	}
	return path == dir || strings.HasPrefix(path, dir+"/")
}

// components splits a cleaned absolute path into its components.
func components(path string) []string {
	if path == "/" {
		return nil
	}
	return strings.Split(strings.TrimPrefix(path, "/"), "/")
}
