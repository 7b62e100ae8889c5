//! Fixture: seven non-test lines around a seven-line test module.
pub fn f() -> u32 {
    1
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        assert_eq!(super::f(), 1);
    }
}

pub fn g() {}
