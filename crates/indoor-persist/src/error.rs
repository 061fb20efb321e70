//! Error type of the persistence layer.

use std::fmt;

/// Errors produced while encoding, decoding or rebuilding persisted venues,
/// workloads and results.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem error while reading or writing a document.
    Io(std::io::Error),
    /// JSON (de)serialisation error.
    Json(serde_json::Error),
    /// The binary payload is malformed (wrong magic, truncated section, bad
    /// string encoding, ...).
    Binary(String),
    /// The document or binary venue file declares a format version this
    /// build does not read.
    UnsupportedVersion {
        /// Version found in the document or file.
        found: u16,
        /// Version this build reads (the highest one, for JSON documents).
        supported: u16,
    },
    /// Rebuilding the indoor space from the document failed.
    Space(indoor_space::SpaceError),
    /// Rebuilding the keyword directory from the document failed.
    Keyword(indoor_keywords::KeywordError),
    /// The document violates an internal invariant (dangling reference,
    /// duplicate identifier, ...).
    InvalidDocument(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Json(e) => write!(f, "json error: {e}"),
            PersistError::Binary(msg) => write!(f, "malformed binary document: {msg}"),
            PersistError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported format version {found} (this build reads version {supported}); \
                 regenerate the file with `ikrq generate`"
            ),
            PersistError::Space(e) => write!(f, "space rebuild error: {e}"),
            PersistError::Keyword(e) => write!(f, "keyword rebuild error: {e}"),
            PersistError::InvalidDocument(msg) => write!(f, "invalid document: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Json(e) => Some(e),
            PersistError::Space(e) => Some(e),
            PersistError::Keyword(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Json(e)
    }
}

impl From<indoor_space::SpaceError> for PersistError {
    fn from(e: indoor_space::SpaceError) -> Self {
        PersistError::Space(e)
    }
}

impl From<indoor_keywords::KeywordError> for PersistError {
    fn from(e: indoor_keywords::KeywordError) -> Self {
        PersistError::Keyword(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let cases: Vec<PersistError> = vec![
            PersistError::Binary("truncated".into()),
            PersistError::UnsupportedVersion {
                found: 9,
                supported: 1,
            },
            PersistError::InvalidDocument("duplicate door".into()),
            PersistError::Space(indoor_space::SpaceError::Unreachable),
            PersistError::Keyword(indoor_keywords::KeywordError::EmptyQuery),
            PersistError::Io(std::io::Error::new(std::io::ErrorKind::NotFound, "gone")),
        ];
        for c in &cases {
            assert!(!c.to_string().is_empty());
        }
        assert!(std::error::Error::source(&cases[0]).is_none());
        assert!(std::error::Error::source(&cases[3]).is_some());
    }

    #[test]
    fn conversions_from_substrate_errors() {
        let e: PersistError = indoor_space::SpaceError::Unreachable.into();
        assert!(matches!(e, PersistError::Space(_)));
        let e: PersistError = indoor_keywords::KeywordError::EmptyQuery.into();
        assert!(matches!(e, PersistError::Keyword(_)));
        let e: PersistError =
            std::io::Error::new(std::io::ErrorKind::PermissionDenied, "nope").into();
        assert!(matches!(e, PersistError::Io(_)));
    }
}
