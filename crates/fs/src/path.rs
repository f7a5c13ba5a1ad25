//! Normalized absolute paths for the simulated file systems.

use core::fmt;

/// An absolute, normalized path inside a simulated filesystem.
///
/// Paths are stored as their components; `.` and empty components are
/// dropped and `..` is resolved at construction, so two equal paths are
/// always structurally equal.
///
/// # Examples
///
/// ```
/// use nymix_fs::Path;
///
/// let p = Path::new("/etc//rc.local");
/// assert_eq!(p.to_string(), "/etc/rc.local");
/// assert_eq!(p.parent().unwrap().to_string(), "/etc");
/// assert!(Path::new("/etc/rc.local").starts_with(&Path::new("/etc")));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Path {
    components: Vec<String>,
}

impl Path {
    /// The filesystem root, `/`.
    pub fn root() -> Self {
        Path {
            components: Vec::new(),
        }
    }

    /// Parses and normalizes a path string. Relative paths are treated
    /// as rooted (the simulated VMs have no working directory concept).
    pub fn new(raw: &str) -> Self {
        let mut components: Vec<String> = Vec::new();
        for part in raw.split('/') {
            match part {
                "" | "." => {}
                ".." => {
                    components.pop();
                }
                other => components.push(other.to_string()),
            }
        }
        Path { components }
    }

    /// Path components, in order from the root.
    pub fn components(&self) -> &[String] {
        &self.components
    }

    /// Whether this is the root path.
    pub fn is_root(&self) -> bool {
        self.components.is_empty()
    }

    /// The final component, if any.
    pub fn file_name(&self) -> Option<&str> {
        self.components.last().map(|s| s.as_str())
    }

    /// The file extension (text after the final `.` of the final
    /// component), if any.
    pub fn extension(&self) -> Option<&str> {
        let name = self.file_name()?;
        let (stem, ext) = name.rsplit_once('.')?;
        if stem.is_empty() {
            None // Dotfiles like `.bashrc` have no extension.
        } else {
            Some(ext)
        }
    }

    /// The containing directory, or `None` for the root.
    pub fn parent(&self) -> Option<Path> {
        if self.components.is_empty() {
            None
        } else {
            Some(Path {
                components: self.components[..self.components.len() - 1].to_vec(),
            })
        }
    }

    /// The ancestor made of this path's first `depth` components
    /// (`depth` at most [`Path::depth`]).
    pub(crate) fn prefix(&self, depth: usize) -> Path {
        Path {
            components: self.components[..depth].to_vec(),
        }
    }

    /// Appends a single component or relative subpath.
    pub fn join(&self, sub: &str) -> Path {
        let mut components = self.components.clone();
        for part in sub.split('/') {
            match part {
                "" | "." => {}
                ".." => {
                    components.pop();
                }
                other => components.push(other.to_string()),
            }
        }
        Path { components }
    }

    /// Whether `prefix` is an ancestor of (or equal to) this path.
    pub fn starts_with(&self, prefix: &Path) -> bool {
        self.components.len() >= prefix.components.len()
            && self.components[..prefix.components.len()] == prefix.components[..]
    }

    /// Re-roots this path from `prefix` onto `new_prefix`.
    ///
    /// Returns `None` if this path is not under `prefix`.
    pub fn rebase(&self, prefix: &Path, new_prefix: &Path) -> Option<Path> {
        if !self.starts_with(prefix) {
            return None;
        }
        let mut components = new_prefix.components.clone();
        components.extend_from_slice(&self.components[prefix.components.len()..]);
        Some(Path { components })
    }

    /// Number of components.
    pub fn depth(&self) -> usize {
        self.components.len()
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.components.is_empty() {
            write!(f, "/")
        } else {
            for c in &self.components {
                write!(f, "/{c}")?;
            }
            Ok(())
        }
    }
}

impl From<&str> for Path {
    fn from(s: &str) -> Self {
        Path::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Path::new("/a//b/./c").to_string(), "/a/b/c");
        assert_eq!(Path::new("/a/b/../c").to_string(), "/a/c");
        assert_eq!(Path::new("/../..").to_string(), "/");
        assert_eq!(Path::new("relative/x").to_string(), "/relative/x");
    }

    #[test]
    fn root_properties() {
        let r = Path::root();
        assert!(r.is_root());
        assert_eq!(r.to_string(), "/");
        assert_eq!(r.parent(), None);
        assert_eq!(r.file_name(), None);
        assert_eq!(r.depth(), 0);
    }

    #[test]
    fn join_and_parent() {
        let etc = Path::new("/etc");
        let rc = etc.join("rc.local");
        assert_eq!(rc.to_string(), "/etc/rc.local");
        assert_eq!(rc.parent(), Some(etc.clone()));
        assert_eq!(etc.join("a/b").depth(), 3);
        assert_eq!(etc.join("../usr").to_string(), "/usr");
    }

    #[test]
    fn prefix_and_rebase() {
        let p = Path::new("/home/user/photos/img.jpg");
        let prefix = Path::new("/home/user");
        assert!(p.starts_with(&prefix));
        assert!(!p.starts_with(&Path::new("/home/users")));
        let rebased = p.rebase(&prefix, &Path::new("/mnt/sani")).unwrap();
        assert_eq!(rebased.to_string(), "/mnt/sani/photos/img.jpg");
        assert!(p.rebase(&Path::new("/var"), &Path::root()).is_none());
    }

    #[test]
    fn extension() {
        assert_eq!(Path::new("/a/img.jpg").extension(), Some("jpg"));
        assert_eq!(Path::new("/a/archive.tar.gz").extension(), Some("gz"));
        assert_eq!(Path::new("/a/.bashrc").extension(), None);
        assert_eq!(Path::new("/a/README").extension(), None);
    }
}
