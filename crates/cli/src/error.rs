//! Error type of the command-line tool.

use std::fmt;

/// Errors reported by the `ikrq` command-line tool.
#[derive(Debug)]
pub enum CliError {
    /// The command line is malformed; the message explains how.
    Usage(String),
    /// Unknown command word.
    UnknownCommand(String),
    /// Filesystem error.
    Io(std::io::Error),
    /// Persistence error (loading or saving a document).
    Persist(indoor_persist::PersistError),
    /// A venue file failed to load; names the file.
    Venue(String, indoor_persist::PersistError),
    /// Engine error while answering a query.
    Engine(ikrq_core::EngineError),
    /// Keyword error (e.g. an empty keyword list).
    Keyword(indoor_keywords::KeywordError),
    /// Space-model error (e.g. while generating a venue).
    Space(indoor_space::SpaceError),
    /// Rendering error.
    Viz(indoor_viz::VizError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::UnknownCommand(cmd) => {
                write!(f, "unknown command `{cmd}` (try `ikrq help`)")
            }
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Persist(e) => write!(f, "persistence error: {e}"),
            CliError::Venue(path, e) => write!(f, "cannot load venue file `{path}`: {e}"),
            CliError::Engine(e) => write!(f, "query error: {e}"),
            CliError::Keyword(e) => write!(f, "keyword error: {e}"),
            CliError::Space(e) => write!(f, "space error: {e}"),
            CliError::Viz(e) => write!(f, "rendering error: {e}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Io(e) => Some(e),
            CliError::Persist(e) | CliError::Venue(_, e) => Some(e),
            CliError::Engine(e) => Some(e),
            CliError::Keyword(e) => Some(e),
            CliError::Space(e) => Some(e),
            CliError::Viz(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<indoor_persist::PersistError> for CliError {
    fn from(e: indoor_persist::PersistError) -> Self {
        CliError::Persist(e)
    }
}

impl From<ikrq_core::EngineError> for CliError {
    fn from(e: ikrq_core::EngineError) -> Self {
        CliError::Engine(e)
    }
}

impl From<indoor_keywords::KeywordError> for CliError {
    fn from(e: indoor_keywords::KeywordError) -> Self {
        CliError::Keyword(e)
    }
}

impl From<indoor_space::SpaceError> for CliError {
    fn from(e: indoor_space::SpaceError) -> Self {
        CliError::Space(e)
    }
}

impl From<indoor_viz::VizError> for CliError {
    fn from(e: indoor_viz::VizError) -> Self {
        CliError::Viz(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let cases: Vec<CliError> = vec![
            CliError::Usage("missing flag".into()),
            CliError::UnknownCommand("frobnicate".into()),
            CliError::Io(std::io::Error::new(std::io::ErrorKind::NotFound, "gone")),
            CliError::Persist(indoor_persist::PersistError::Binary("bad".into())),
            CliError::Engine(ikrq_core::EngineError::InvalidK(0)),
            CliError::Keyword(indoor_keywords::KeywordError::EmptyQuery),
            CliError::Space(indoor_space::SpaceError::Unreachable),
            CliError::Viz(indoor_viz::VizError::EmptyChart),
        ];
        for c in &cases {
            assert!(!c.to_string().is_empty());
        }
        assert!(std::error::Error::source(&cases[0]).is_none());
        assert!(std::error::Error::source(&cases[2]).is_some());
    }

    #[test]
    fn conversions() {
        let e: CliError = indoor_keywords::KeywordError::EmptyQuery.into();
        assert!(matches!(e, CliError::Keyword(_)));
        let e: CliError = ikrq_core::EngineError::InvalidK(0).into();
        assert!(matches!(e, CliError::Engine(_)));
        let e: CliError = indoor_viz::VizError::EmptyChart.into();
        assert!(matches!(e, CliError::Viz(_)));
        let e: CliError = indoor_space::SpaceError::Unreachable.into();
        assert!(matches!(e, CliError::Space(_)));
    }
}
